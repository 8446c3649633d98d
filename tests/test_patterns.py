import itertools
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedygraph import acceptance, graphcore, patterns, rng
from greedygraph.graphcore import EvolvingGraph, bitset_ints, edge_index, num_pairs, pair_rows
from greedygraph.numerics import RoundContext
from greedygraph.patterns import (CATALOG, PatternGraph,
                                  complete_bipartite, count_copies,
                                  count_embeddings, cycle_graph,
                                  isomorphisms, load_pattern, parse_pattern_text,
                                  path_graph, star_graph, variance_margin)
from greedygraph.predictor import gnm_edge_target, sample_gnm
from greedygraph.process import ProcessParams, run_rounds
from reference import graph, host as make_host, int_rows, pairs, replay, spy, traced_peak

K3 = PatternGraph.from_edges([(0, 1), (1, 2), (0, 2)], name="K3")


def naive_embeddings(host: EvolvingGraph, pattern: PatternGraph) -> int:
    """Independent oracle: try every injective vertex map."""
    count = 0
    for combo in itertools.permutations(range(host.n), pattern.v):
        if all(host.adj[combo[a]] >> combo[b] & 1 for a, b in pattern.edges):
            count += 1
    return count


def random_host(n: int, p: float, seed: int) -> EvolvingGraph:
    gen = rng.stream(seed, purpose=rng.GNM)
    return make_host(n, [(u, v) for u, v in pairs(n) if gen.random() < p])


class TestAutomorphisms:
    @pytest.mark.parametrize("pattern,expected", [
        (CATALOG["K2"], 2),
        (CATALOG["P3"], 2),
        (CATALOG["P4"], 2),
        (CATALOG["C4"], 8),
        (CATALOG["C5"], 10),
        (CATALOG["C6"], 12),
        (CATALOG["K13"], 6),
        (CATALOG["K22"], 8),
    ])
    def test_catalog(self, pattern, expected):
        assert pattern.aut == expected

    def test_two_disjoint_edges(self):
        p = PatternGraph.from_edges([(0, 1), (2, 3)], name="2K2")
        assert p.aut == 8

    def test_divides_factorial(self):
        import math
        for p in CATALOG.values():
            assert math.factorial(p.v) % p.aut == 0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            PatternGraph.from_edges([(0, i) for i in range(1, 9)])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(list(itertools.combinations(range(7), 2))),
                min_size=1, unique=True))
def test_metadata_matches_literal_enumeration(edges):
    p = PatternGraph.from_edges(edges)
    verts = sorted({w for e in edges for w in e})
    eset = {frozenset(e) for e in edges}
    aut = 0
    for perm in itertools.permutations(verts):
        image = dict(zip(verts, perm))
        aut += {frozenset((image[a], image[b])) for a, b in edges} == eset
    dens = Fraction(len(edges), len(verts))
    balanced = all(Fraction(sum(1 for e in eset if e <= set(sub)), r) <= dens
                   for r in range(1, len(verts) + 1)
                   for sub in itertools.combinations(verts, r))
    triangle_free = not any({frozenset((a, b)), frozenset((b, c)), frozenset((a, c))} <= eset
                            for a, b, c in itertools.combinations(verts, 3))
    assert (p.v, p.e, p.aut, p.balanced, p.triangle_free) == \
        (len(verts), len(edges), aut, balanced, triangle_free)


class TestMetadata:
    def test_catalog_flags(self):
        for p in CATALOG.values():
            assert p.triangle_free
            assert p.balanced
            assert p.density < 2
        assert CATALOG["C4"].density == 1.0
        assert CATALOG["K13"].density == pytest.approx(0.75)

    def test_triangle_flag(self):
        tri = PatternGraph.from_edges([(0, 1), (1, 2), (0, 2)], name="K3")
        assert not tri.triangle_free

    def test_unbalanced_example(self):
        # 4-cycle plus a disjoint edge: overall density 5/6, cycle inside has 1
        p = PatternGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
        assert not p.balanced

    def test_k22_is_c4_alias(self):
        assert CATALOG["K22"] is not CATALOG["C4"]
        assert isomorphisms(CATALOG["K22"].adjacency(), CATALOG["C4"].adjacency(), first=True)

    def test_masks_match_word_rows_without_building_a_graph(self, monkeypatch):
        # a pattern's int masks, and those of its spasm, are set bit by bit,
        # equal to the word rows of the graph with its edges
        expect = {name: list(bitset_ints(pair_rows([edge_index(a, b, p.v) for a, b in p.edges],
                                                   p.v)))
                  for name, p in CATALOG.items()}

        def built(*args, **kwargs):
            raise AssertionError("built a graph")

        monkeypatch.setattr(EvolvingGraph, "__init__", built)
        monkeypatch.setattr(graphcore, "pair_rows", built)
        for name, p in CATALOG.items():
            assert p.adjacency() == expect[name]
            assert PatternGraph.from_edges(p.edges, name=p.name) == p
            patterns._spasm.__wrapped__(p.edges)

    @pytest.mark.parametrize("edges, match", [
        ([(0, 1), (2, 2)], r"pattern self-loop \(2, 2\)"),
        ([(0, 1), (1, 2), (2, 1)], r"duplicate pattern edge \(2, 1\)")],
        ids=["self-loop", "duplicate"])
    def test_rejects_bad_edges(self, edges, match):
        with pytest.raises(ValueError, match=match):
            PatternGraph.from_edges(edges)

    def test_import_builds_no_graph(self):
        # the catalogue's patterns and the process's shapes take int masks
        # at import, in every interpreter, so no graph is built there
        code = ("import cProfile, pstats\n"
                "prof = cProfile.Profile()\n"
                "prof.runctx('import greedygraph.cli', {}, {})\n"
                "print(' '.join(f[2] for f in pstats.Stats(prof).stats if 'greedygraph' in f[0]))\n")
        called = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True).stdout.split()
        assert "_masks" in called and "from_edges" in called
        assert "pair_rows" not in called and "bitset_ints" not in called


class TestCountCopies:
    def test_k4_contains_three_c4(self):
        host = make_host(4, pairs(4))
        assert count_copies(host, CATALOG["C4"]) == 3

    def test_c5_contains_five_p3(self):
        host = make_host(5, [(i, (i + 1) % 5) for i in range(5)])
        assert count_copies(host, CATALOG["P3"]) == 5

    @pytest.mark.parametrize("name", ["K2", "P3", "P4", "C4", "C5", "K13"])
    def test_random_host_vs_naive(self, name):
        host = random_host(9, 0.45, seed=5)
        pattern = CATALOG[name]
        naive = naive_embeddings(host, pattern)
        assert naive % pattern.aut == 0
        assert count_copies(host, pattern) == naive // pattern.aut

    def test_embeddings_equal_copies_times_aut(self):
        host = random_host(11, 0.3, seed=8)
        for name in ("P4", "C4", "C5"):
            pattern = CATALOG[name]
            assert count_embeddings(host, pattern) == \
                count_copies(host, pattern) * pattern.aut

    def test_disconnected_pattern(self):
        host = random_host(9, 0.4, seed=13)
        p = PatternGraph.from_edges([(0, 1), (2, 3)], name="2K2")
        assert count_copies(host, p) == naive_embeddings(host, p) // p.aut

    def test_walk_route_matches_backtracking_n60(self):
        # larger sparse host: homomorphism-basis route vs backtracking
        n = 60
        gen = rng.stream(3, purpose=rng.GNM)
        ids = gen.choice(num_pairs(n), size=240, replace=False)
        host = make_host(n, map(pairs(n).__getitem__, ids.tolist()))
        c4 = CATALOG["C4"]
        p3 = CATALOG["P3"]
        assert count_copies(host, c4) == count_embeddings(host, c4) // c4.aut
        assert count_copies(host, p3) == count_embeddings(host, p3) // p3.aut

    @pytest.mark.parametrize("kind", ["process", "gnm"])
    def test_host_from_assigned_int_rows(self, kind):
        # the benchmark's small hosts: the first 40 vertices of an n = 300
        # host, made by assigning masked int rows to ``adj`` and then the
        # edge count; counted on their word rows, checked by backtracking
        ctx = RoundContext(300, 0.1)
        big = (run_rounds(ProcessParams(ctx=ctx, seed=3)).graph if kind == "process" else
               sample_gnm(300, 4 * gnm_edge_target(300, 0.1), rng.stream(3, purpose=rng.GNM)))
        k, mask = 40, (1 << 40) - 1
        host = EvolvingGraph(k)
        host.adj = [big.adj[u] & mask for u in range(k)]
        host.edge_count = sum(x.bit_count() for x in host.adj) // 2
        assert host.edge_count > 0
        counts = []
        for name in ("P3", "C4", "P4", "K13", "C5"):
            pattern = CATALOG[name]
            counts.append(count_copies(host, pattern))
            assert counts[-1] == count_embeddings(host, pattern) // pattern.aut
        assert all(counts[:2])

    def test_isomorphism_invariance(self):
        host = random_host(10, 0.4, seed=21)
        perm = np.random.default_rng(4).permutation(10).tolist()
        relabeled = make_host(10, [(perm[u], perm[v]) for u, v in host.edges()])
        for name in ("P3", "C4", "C5"):
            assert count_copies(host, CATALOG[name]) == \
                count_copies(relabeled, CATALOG[name])

    def test_triangle_count(self):
        host = make_host(4, pairs(4))
        assert count_copies(host, K3) == 4

    def test_s7_on_n100_matches_degree_formula(self):
        # 8 vertices on n=100: a tree, counted in int64 over the CSR
        host = random_host(100, 0.15, seed=31)
        degs = [row.bit_count() for row in host.adj]
        expected = sum(comb(d, 7) for d in degs)
        assert expected > 0
        assert count_copies(host, star_graph(7)) == expected

    def test_exact_count_bound_raises(self):
        # S7 on a star with max degree 199 stays under 200 * 199**7 < 2**63
        # and runs in int64 on the CSR; at max degree 239 the bound
        # 240 * 239**7 is past 2**63
        host = make_host(200, [(0, v) for v in range(1, 200)])
        assert count_copies(host, star_graph(7)) == comb(199, 7)
        host = make_host(240, [(0, v) for v in range(1, 240)])
        with pytest.raises(ValueError, match="exact-count bound"):
            count_copies(host, star_graph(7))

    def test_dense_adjacency_memory_bound_raises(self, monkeypatch):
        # one estimate for the whole count.  On this host C4 needs 840,296
        # bytes: the CSR, the scatter and two int64 blocks of 200**2 entries
        # (its scattered push and the product being formed); the host's word
        # rows are read in place.  C5 adds the dense adjacency, 200**2 bits
        # unpacked and 200**2 float32 entries, and a block for its dense
        # push: 1,360,296 bytes.  So C4 counts where C5 is refused.
        host = random_host(200, 0.02, seed=2)
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 1_360_295)
        with pytest.raises(ValueError, match="memory bound: a count at n=200"):
            count_copies(host, CATALOG["C5"])
        c4 = CATALOG["C4"]
        assert count_copies(host, c4) == count_embeddings(host, c4) // c4.aut > 0
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 1_360_296)
        assert count_copies(host, CATALOG["C5"]) >= 0
        monkeypatch.setattr(graphcore, "physical_memory", lambda: 840_295)
        with pytest.raises(ValueError, match="memory bound: a count at n=200"):
            count_copies(host, c4)

    def test_two_free_vertex_estimate_bounds_traced_peak(self, monkeypatch):
        # C8's quotients with two free vertices are a group of their own;
        # its pushes are charged at their own shapes, so the estimate lies
        # between the traced peak and twice it.  K33 at n=100 and K24 at
        # n=500 are estimated within about 1% of their peaks: any growth in
        # the count's temporaries must show here, not slip past the check
        needs = spy(monkeypatch, patterns, "check_memory", lambda _, need, what: need)
        for pattern, n, seed in ((cycle_graph(8), 200, 1), (complete_bipartite(3, 3), 100, 2),
                                 (complete_bipartite(2, 4), 500, 2)):
            host = run_rounds(ProcessParams(ctx=RoundContext(n, 0.1), seed=seed)).graph
            needs.clear()
            _, peak = traced_peak(count_copies, host, pattern)
            assert peak <= needs[0], (pattern, n, peak, needs[0])
            if pattern.v == 8:
                assert needs[0] <= 2 * peak

    def test_estimate_bounds_the_csr_build(self, monkeypatch):
        # P3 on a dense host pushes only vectors over the CSR, so the CSR
        # build, about 32 bytes per entry in one row step, is the largest
        # transient: the traced peak is reached by the end of the build, and
        # the estimate, which charges no scatter, is within twice of it
        host = random_host(400, 0.5, seed=1)
        needs = spy(monkeypatch, patterns, "check_memory", lambda _, need, what: need)
        built = spy(monkeypatch, patterns, "neighbours",
                    lambda *_: tracemalloc.get_traced_memory()[1])
        _, peak = traced_peak(count_copies, host, path_graph(3))
        assert peak == built[-1] <= needs[0] <= 2 * peak


class TestVarianceMargin:
    @pytest.mark.parametrize("name", ["C4", "C5", "C6", "P3", "P4", "K2"])
    def test_matches_double_enumeration(self, name):
        pattern = CATALOG[name]
        got = variance_margin(pattern, 0.01)
        ref_margin, ref_dens = acceptance._margin_oracle(pattern, 0.01)
        assert got.margin == pytest.approx(ref_margin, abs=1e-12)
        assert got.max_density == pytest.approx(ref_dens, abs=1e-12)
        assert got.margin > 0

    def test_binding_subgraph_is_single_edge_here(self):
        # v - (1/2 - eps) e over subgraphs is minimized by the lone edge for
        # these sparse patterns: 2 - 0.49 = 1.51
        assert variance_margin(CATALOG["C4"], 0.01).margin == pytest.approx(1.51)
        assert variance_margin(CATALOG["C5"], 0.0).margin == pytest.approx(1.5)

    def test_k2(self):
        for eps in (0.0, 0.01, 0.2, 0.49):
            assert variance_margin(CATALOG["K2"], eps).margin == pytest.approx(2 - (0.5 - eps))

    def test_monotone_in_eps(self):
        for name in ("C4", "C5", "P4"):
            vals = [variance_margin(CATALOG[name], e).margin
                    for e in (0.0, 0.05, 0.1, 0.2)]
            assert vals == sorted(vals)

    def test_rejects_triangles(self):
        tri = PatternGraph.from_edges([(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            variance_margin(tri, 0.01)


class TestParsing:
    def test_text_roundtrip(self):
        p = parse_pattern_text("0 1\n1 2\n# comment\n2 3\n")
        assert isomorphisms(p.adjacency(), CATALOG["P4"].adjacency(), first=True)

    def test_load_catalog_and_star(self):
        assert load_pattern("c4") is CATALOG["C4"]
        s5 = load_pattern("S5")
        assert s5.v == 6 and s5.e == 5

    def test_load_file(self, tmp_path):
        f = tmp_path / "pat.txt"
        f.write_text("0 1\n0 2\n0 3\n")
        assert isomorphisms(load_pattern(str(f)).adjacency(), CATALOG["K13"].adjacency(),
                            first=True)

    def test_unknown(self):
        with pytest.raises(ValueError):
            load_pattern("Q7")


def subset_oracle_c4(host: EvolvingGraph) -> int:
    # every 4-subset supports three candidate 4-cycle edge sets
    total = 0
    for a, b, c, d in itertools.combinations(range(host.n), 4):
        for cyc in (((a, b), (b, c), (c, d), (d, a)),
                    ((a, b), (b, d), (d, c), (c, a)),
                    ((a, c), (c, b), (b, d), (d, a))):
            if all(host.adj[u] >> v & 1 for u, v in cyc):
                total += 1
    return total


def subset_oracle_p3(host: EvolvingGraph) -> int:
    total = 0
    for sub in itertools.combinations(range(host.n), 3):
        for centre in range(3):
            others = [sub[j] for j in range(3) if j != centre]
            if all(host.adj[sub[centre]] >> o & 1 for o in others):
                total += 1
    return total


def test_count_copies_n30_subset_enumeration():
    host = random_host(30, 0.12, seed=77)
    assert count_copies(host, CATALOG["C4"]) == subset_oracle_c4(host)
    assert count_copies(host, CATALOG["P3"]) == subset_oracle_p3(host)


def random_pattern_and_host(data) -> tuple[PatternGraph, EvolvingGraph]:
    """A pattern on at most 6 vertices (any edge set, so possibly
    disconnected or with triangles) and a host on at most 12 vertices that
    is either uniform or built by the triangle-free insertion rule."""
    pv = data.draw(st.integers(2, 6))
    pairs = list(itertools.combinations(range(pv), 2))
    pick = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    n = data.draw(st.integers(1, 12))
    hpairs = list(itertools.combinations(range(n), 2))
    order = data.draw(st.permutations(hpairs)) if hpairs else []
    keep = data.draw(st.integers(0, len(hpairs)))
    triangle_free = data.draw(st.booleans())
    rows = replay(n, order[:keep])[1] if triangle_free else int_rows(n, order[:keep])
    return PatternGraph.from_edges(pick), graph(rows)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_count_copies_matches_backtracking_property(data):
    pattern, host = random_pattern_and_host(data)
    assert count_copies(host, pattern) == count_embeddings(host, pattern) // pattern.aut


@pytest.mark.parametrize("triples", [1, 7])
def test_property_with_scatter_runs_split(monkeypatch, triples):
    # runs of at most 1 or 7 (x, a, b) triples split the scatter inside a
    # host row and across rows
    monkeypatch.setattr(patterns, "_TRIPLES", triples)
    test_count_copies_matches_backtracking_property()


def closed_forms(host: EvolvingGraph) -> dict[str, int]:
    a = np.zeros((host.n, host.n), dtype=np.int64)
    for u, v in host.edges():
        a[u, v] = a[v, u] = 1
    d = a.sum(axis=1)
    m = int(d.sum()) // 2
    a2 = a @ a
    tr4 = int((a2 ** 2).sum())
    triangles = int((a2 * a).sum()) // 6
    us, vs = np.nonzero(np.triu(a))
    return {"P3": int((d * (d - 1) // 2).sum()),
            "K13": int((d * (d - 1) * (d - 2) // 6).sum()),
            "P4": int(((d[us] - 1) * (d[vs] - 1)).sum()) - 3 * triangles,
            "C4": (tr4 - 2 * int((d * d).sum()) + 2 * m) // 8}


@pytest.mark.parametrize("kind", ["process", "gnm"])
def test_count_copies_n200_closed_forms(kind):
    ctx = RoundContext(200, 0.1)
    if kind == "process":
        host = run_rounds(ProcessParams(ctx=ctx, seed=12)).graph
        assert host.audit_triangle_free()
    else:
        host = sample_gnm(200, gnm_edge_target(200, 0.1), rng.stream(12, purpose=rng.GNM))
        assert not host.audit_triangle_free()
    for name, expected in closed_forms(host).items():
        assert count_copies(host, CATALOG[name]) == expected


def test_forests_and_c4_never_build_the_dense_adjacency(monkeypatch):
    # n=600 process host, row blocks of 50 rows and CSR steps of 50 rows
    host = run_rounds(ProcessParams(ctx=RoundContext(600, 0.1), seed=5)).graph

    unpack = patterns.unpack_rows

    def rows_only(words, n):
        assert len(words) < n, "dense n x n adjacency built"
        return unpack(words, n)

    monkeypatch.setattr(patterns, "unpack_rows", rows_only)
    monkeypatch.setattr(patterns, "_BLOCK_CELLS", 600 * 50)
    for name, expected in closed_forms(host).items():
        assert count_copies(host, CATALOG[name]) == expected
