"""Lattice sizes: recursion rules, witnesses, fits and minimal boxes."""

import hashlib
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latsize.size
from latsize import (
    AffineUnimodularMap,
    EmptyPolygonError,
    InternalConsistencyError,
    apply_map,
    fit_into,
    hull,
    integral_length,
    interior_hull,
    lattice_size_sigma,
    lattice_size_square,
    lattice_width,
    lattice_width_recursive,
    lawrence_prism,
    minimal_box,
    onion_skins,
    oracle_size,
    random_polygon,
    random_unimodular_map,
    rectangle,
    standard_triangle,
    upsilon,
    width_along,
)
from latsize.cli import run_command
from latsize.interior import _moved
from latsize.polygon import recognize_special
from latsize.size import (
    _BASE, RULE_SEARCH, ParallelEdgeHit, Step, _frame_extremes, _innermost_step, _size_value, _step,
    parallel_edge_exception,
)
from latsize.width import _checked_basis

from conftest import alarm, fibonacci_shear, in_box, in_sigma, reference_skins, run_corpus, weierstrass


def translated(poly, t):
    return hull([(x + t[0], y + t[1]) for x, y in poly.vertices])


# --- parallel edge scan -----------------------------------------------------


def test_parallel_edge_on_dilated_triangle():
    delta = standard_triangle(4)
    hit = parallel_edge_exception(delta, interior_hull(delta))
    assert (hit.r, hit.s) == (4, 1)


def test_parallel_edge_on_weierstrass():
    delta = weierstrass(4)
    gamma = interior_hull(delta)
    assert gamma.vertices == ((1, 1), (4, 1))
    hit = parallel_edge_exception(delta, gamma)
    assert (hit.r, hit.s) == (9, 3)
    assert hit.tau_prime == ((1, 1), (4, 1))


def test_parallel_edge_absent_on_square():
    delta = rectangle(3, 3)
    assert parallel_edge_exception(delta, interior_hull(delta)) is None


def test_parallel_edge_rejects_wrong_gamma():
    # the caller passes the interior hull, which is not checked; an empty one has no face to scan
    delta = standard_triangle(4)
    with pytest.raises(ValueError, match="non-empty interior hull"):
        parallel_edge_exception(delta, hull([]))


def _reference_hit(delta, gamma, threshold):
    """The parallel-edge scan by its definition: every edge of delta against every vertex of gamma."""
    best = None
    for (p, q), (a, b, c) in zip(delta.edges(), delta.edge_constraints):
        vals = [a * x + b * y for x, y in gamma.vertices]
        if max(vals) != c - 1:
            continue
        face = tuple(v for v, t in zip(gamma.vertices, vals) if t == c - 1)
        s = integral_length(face[0], face[1]) if len(face) == 2 else 0
        r = integral_length(p, q)
        if r - s >= threshold and (best is None or r - s > best.r - best.s):
            best = ParallelEdgeHit(r, s, (p, q), face)
    return best


def test_parallel_edge_lookup_matches_the_full_scan(box3_census):
    # every consecutive skin pair and every run body (its first skin against
    # its second), against the scan of every vertex of the inner skin; and
    # the lemma that makes a lookup enough: the inner skin reaches the
    # inward unit shift of every edge of lattice length 3 or more
    polygons = list(box3_census)
    polygons += [apply_map(random_unimodular_map(i), delta) for i, delta in enumerate(box3_census)]
    polygons += [random_polygon(seed, k) for k in (5, 20, 40, 80, 160) for seed in range(40)]
    kinds = Counter()
    for delta in polygons:
        chain = onion_skins(delta)
        skins = chain.skins
        pairs = list(zip(skins, skins[1:]))
        pairs += [(skin, _moved(skin, shift, 1)) for skin, shift, count in chain.runs if count > 1]
        for outer, inner in pairs:
            kinds[inner.kind] += 1
            want = _reference_hit(outer, inner, 3)
            kinds["hit"] += want is not None
            assert parallel_edge_exception(outer, inner) == want, outer
            for (p, q), (a, b, c) in zip(outer.edges(), outer.edge_constraints):
                if integral_length(p, q) >= 3:
                    kinds["long edge"] += 1
                    assert max(a * x + b * y for x, y in inner.vertices) == c - 1, (outer, p, q)
    assert kinds["point"] and kinds["segment"] and kinds["polygon"] and kinds["hit"] and kinds["long edge"], kinds


def test_each_skin_hit_is_computed_once_per_chain(monkeypatch):
    # one .trace read walks the chain once: one parallel-edge lookup per run
    # end, on its last skin, plus one per run of count > 1, on its first
    # skin for the skins before the last. The Sigma trace recognizes each
    # run start and the innermost skin once, the square trace only the
    # innermost skin. The width recursion looks up no hit and recognizes
    # exactly the skins the Sigma trace does, and the default calls walk no
    # chain at all
    computed, recognized = Counter(), Counter()
    lookup, recognize = latsize.size.parallel_edge_exception, latsize.size.recognize_special

    def counting(delta, gamma):
        computed[delta] += 1
        return lookup(delta, gamma)

    def counting_special(delta):
        recognized[delta] += 1
        return recognize(delta)

    monkeypatch.setattr(latsize.size, "parallel_edge_exception", counting)
    monkeypatch.setattr(latsize.size, "recognize_special", counting_special)
    skins = runs = 0
    for delta in (random_polygon(3, 160), random_polygon(4, 300), rectangle(9, 30), standard_triangle(40)):
        computed.clear()
        recognized.clear()
        lattice_size_sigma(delta)
        lattice_size_square(delta)
        minimal_box(delta)
        assert computed == recognized == Counter(), delta
        trace = onion_skins(delta).runs
        ends = Counter(_moved(skin, shift, count - 1) for skin, shift, count in trace[:-1])
        lookups = ends + Counter(skin for skin, _, count in trace if count > 1)
        innermost = _moved(*trace[-1][:2], trace[-1][2] - 1)
        # the innermost skin is looked at once, also when it starts its run
        looked_at = {skin for skin, _, _ in trace} | {innermost}
        for walk, hits, recognizes in ((lambda: lattice_size_sigma(delta).trace, lookups, looked_at),
                                       (lambda: lattice_size_square(delta).trace, lookups, {innermost}),
                                       (lambda: lattice_width_recursive(delta), Counter(), looked_at)):
            computed.clear()
            recognized.clear()
            walk()
            assert computed == hits, delta
            assert recognized == Counter(skin for skin in recognizes if skin.is_two_dim), delta
        skins += sum(count for _, _, count in trace)
        runs += len(trace)
    assert skins > 2 * runs, (skins, runs)


def _reference_size(delta, shape):
    """The size recursion one skin at a time, as before runs: value and per-skin trace."""
    skins = reference_skins(delta)
    innermost = skins[-1]
    special = recognize_special(innermost) if innermost.is_two_dim else None
    value, step = _innermost_step(innermost, special, shape)
    trace = [step]
    for outer, inner in zip(skins[-2::-1], skins[:0:-1]):
        special = recognize_special(outer)
        hit = _reference_hit(outer, inner, 3)
        if shape == "sigma" and special is not None and special.kind == "rectangle":
            a, b = special.params
            step = Step(outer, "RectangleAB", a + b - value, (a, b))
        elif hit is not None:
            assert hit.s == value, outer
            step = Step(outer, "ParallelEdge", hit.r - value, (hit.r, hit.s))
        else:
            step = Step(outer, "GenericStep", 3 if shape == "sigma" else 2)
        value += step.contribution
        trace.append(step)
    return value, tuple(trace)


def _reference_width(delta):
    """The width recursion one skin at a time, by its rule: the innermost skin's own width, then
    3 per standard triangle outside it and 2 per other skin (Castryck and Cools)."""
    skins = [delta]
    while not (gamma := interior_hull(skins[-1])).is_empty:
        skins.append(gamma)
    innermost = skins[-1]
    special = recognize_special(innermost) if innermost.is_two_dim else None
    if not innermost.is_two_dim:
        trace = [Step(innermost, "DegenerateBaseSearch", 0)]
    elif special == ("standard_triangle", (2,)):
        trace = [Step(innermost, "TwoSigma", 2)]
    else:
        # every other interior-free polygon has lattice width one
        trace = [Step(innermost, "GenericStep", 1)]
    for skin in reversed(skins[:-1]):
        special = recognize_special(skin)
        trace.append(Step(skin, "GenericStep", 3 if special and special.kind == "standard_triangle" else 2))
    return sum(step.contribution for step in trace), tuple(trace)


def _expand(trace):
    """The per-skin form of a trace, innermost first, by the expansion rule in the Step docstring."""
    out = []
    for step in trace:
        fall = 2 if step.rule == "RectangleAB" else step.contribution
        for t in reversed(range(step.count)):
            moved = [(x + t * dx, y + t * dy) for (x, y), (dx, dy) in zip(step.skin.vertices, step.shift)]
            skin = hull(moved) if t else step.skin
            out.append(Step(skin, step.rule, step.contribution, tuple(p - t * fall for p in step.params)))
    return tuple(out)


def test_run_traces_expand_to_the_per_skin_recursion(box3_census):
    entries = skins = 0
    for delta in run_corpus(box3_census):
        for shape in ("sigma", "square"):
            value, trace = _size_value(delta, shape)
            assert (value, _expand(trace)) == _reference_size(delta, shape), (delta, shape)
            entries += len(trace)
            skins += sum(step.count for step in trace)
        value, trace = lattice_width_recursive(delta)
        assert (value, _expand(trace)) == _reference_width(delta), delta
    # thousands of skins are covered by run entries
    assert skins - entries > 5000, (skins, entries)


# --- triangle size ----------------------------------------------------------


def test_sigma_heptagon_reference(heptagon):
    cert = lattice_size_sigma(heptagon)
    assert cert.value == 10
    image = apply_map(cert.witness, heptagon)
    assert all(in_sigma(10, v) for v in image.vertices)
    assert [s.rule for s in cert.trace] == ["LawrencePrism", "GenericStep", "GenericStep"]
    assert [s.contribution for s in cert.trace] == [6, 3, 3]


def test_sigma_reference_values():
    assert _size_value(rectangle(2, 3), "sigma")[0] == 5
    assert _size_value(weierstrass(4), "sigma")[0] == 9
    assert _size_value(interior_hull(weierstrass(4)), "sigma")[0] == 3
    assert _size_value(upsilon(2), "sigma")[0] == 6
    assert _size_value(hull([(0, 0), (2, 0), (2, 1), (0, 1)]), "sigma")[0] == 3


def test_sigma_conventions():
    assert lattice_size_sigma(hull([])).value == -2
    assert lattice_size_sigma(hull([(4, 5)])).value == 0
    assert lattice_size_sigma(hull([(0, 0), (3, 0)])).value == 3
    assert lattice_size_sigma(hull([(2, 2), (6, 4)])).value == 2


def test_sigma_family_laws():
    for d in range(1, 9):
        assert _size_value(standard_triangle(d), "sigma")[0] == d
    for a in range(1, 7):
        for b in range(a, 7):
            assert _size_value(rectangle(a, b), "sigma")[0] == a + b
    for d in range(2, 6):
        assert _size_value(upsilon(d), "sigma")[0] == 3 * d
    for a in range(2, 7):
        for b in range(0, a + 1):
            want = a + 1 if a == b else a
            assert _size_value(lawrence_prism(a, b), "sigma")[0] == want, (a, b)


# --- square size ------------------------------------------------------------


def test_square_heptagon_reference(heptagon):
    cert = lattice_size_square(heptagon)
    assert cert.value == 8
    image = apply_map(cert.witness, heptagon)
    assert all(in_box(8, 8, v) for v in image.vertices)
    assert [s.contribution for s in cert.trace] == [5, 2, 2]


def test_square_reference_values():
    assert _size_value(standard_triangle(3), "square")[0] == 3
    assert _size_value(hull([(0, 0), (4, 0), (0, 2)]), "square")[0] == 4
    assert _size_value(hull([(-1, -1), (3, -1), (3, 0), (-1, 4)]), "square")[0] == 5
    cert = lattice_size_square(standard_triangle(4))
    assert cert.value == 4
    hit = [s for s in cert.trace if s.rule == "ParallelEdge"]
    assert hit and hit[-1].params == (4, 1)


def test_small_triangles_take_the_parallel_edge_rule():
    # a long edge facing the single interior point decides these sizes
    for vs in ([(0, 0), (3, 0), (0, 2)], [(0, 0), (3, 0), (2, 1), (0, 2)], [(0, 0), (3, 0), (1, 2), (0, 2)]):
        value, trace = _size_value(hull(vs), "square")
        assert value == 3
        assert (trace[-1].rule, trace[-1].params) == ("ParallelEdge", (3, 0))
    value, trace = _size_value(hull([(0, 0), (4, 0), (0, 2)]), "sigma")
    assert value == 4
    assert (trace[-1].rule, trace[-1].params) == ("ParallelEdge", (4, 0))


def test_square_family_laws():
    for d in range(1, 9):
        assert _size_value(standard_triangle(d), "square")[0] == d
    for a in range(1, 7):
        for b in range(a, 7):
            assert _size_value(rectangle(a, b), "square")[0] == b
    for a in range(2, 7):
        for b in range(0, a + 1):
            assert _size_value(lawrence_prism(a, b), "square")[0] == a, (a, b)


def test_two_dim_skins_need_no_search(box3_census, monkeypatch):
    # every two-dimensional skin takes a rule, innermost or not, and every
    # certificate builds its witness from the reduced basis: no certificate
    # and no CLI command short of oracle and --verify runs the feasibility
    # search of fit_into, which only the oracle uses
    def no_search(*args):
        raise AssertionError("a certificate ran the feasibility search")

    monkeypatch.setattr("latsize.size.fit_into", no_search)
    polygons = [poly for i, delta in enumerate(box3_census)
                for poly in (delta, apply_map(random_unimodular_map(i), delta))]
    polygons += [hull([(3, -7)]), hull([(0, 0), (6, 4)]), hull([(-2, 5), (1, -4)])]
    polygons += [hull([(0, 0), (length, 0), (0, 2)]) for length in (300, 1000, 3000)]
    for poly in polygons:
        for shape in ("sigma", "square"):
            for step in _size_value(poly, shape)[1]:
                assert not (step.skin.is_two_dim and step.rule == RULE_SEARCH), poly
        lattice_size_sigma(poly)
        box = minimal_box(poly)
        assert (box.witness, box.a) == (lattice_size_square(poly).witness, lattice_width(poly).width), poly
    for poly in polygons[-6:]:
        vertices = "--vertices=" + ";".join(f"{x},{y}" for x, y in poly.vertices)
        for command, flags in (("sigma", ["--witness", "--trace"]), ("square", ["--witness", "--trace"]),
                               ("box", ["--witness"]), ("width", ["--trace"]), ("peel", [])):
            assert run_command([command, vertices, *flags, "--json"]).exit_code == 0


def test_each_segment_step_checks_its_inner_value():
    # the rule of a segment, less its fall over the segment, must give the
    # inner value; a wrong inner value fails on every segment whose rule
    # fixes its value, a rectangle or a hit. The generic step adds the fall
    # to the inner value on each skin. Segments are
    # (skin, shift, n, rectangle, hit), and the Sigma fall is 3
    skin = rectangle(2, 7).translate((1, 1))  # the last skin of rectangle(4, 9), around a segment of length 5
    rectangle_end = (skin, (), 1, (2, 7), None)
    assert onion_skins(rectangle(4, 9)).runs[0][1:] == (((1, 1), (-1, 1), (-1, -1), (1, -1)), 2)
    assert (recognize_special(skin).params, parallel_edge_exception(skin, interior_hull(skin))) == ((2, 7), None)
    hit = ParallelEdgeHit(9, 3, ((0, 0), (9, 0)), ((1, 1), (4, 1)))  # r = 9 around a segment of length 3
    parallel_end = (weierstrass(4), (), 1, None, hit)
    assert parallel_edge_exception(weierstrass(4), interior_hull(weierstrass(4))) == hit
    shift = ((1, 1), (-2, 1), (1, -2))
    hit = ParallelEdgeHit(40, 37, ((0, 0), (40, 0)), ((1, 1), (38, 1)))
    body = (standard_triangle(40), shift, 13, None, hit)  # 40 * Sigma down to 4 * Sigma, then Sigma
    assert onion_skins(standard_triangle(40)).runs == ((standard_triangle(40), shift, 14),)
    assert parallel_edge_exception(standard_triangle(40), _moved(standard_triangle(40), shift, 1)) == hit
    upsilon_shift = ((1, 1), (-1, 0), (0, -1))
    generic_body = (upsilon(5), upsilon_shift, 4, None, None)  # Upsilon_5 down to Upsilon_2, around Upsilon_1
    assert onion_skins(upsilon(5)).runs[0] == (upsilon(5), upsilon_shift, 5)
    assert recognize_special(upsilon(5)).kind == "upsilon"
    assert parallel_edge_exception(upsilon(5), _moved(upsilon(5), upsilon_shift, 1)) is None
    for segment, inner, value in ((rectangle_end, 5, 9), (parallel_end, 3, 9), (body, 1, 40)):
        assert _step(segment, inner, 3)[0] == value
        for wrong in (inner - 1, inner + 1):
            with pytest.raises(InternalConsistencyError, match="not to the inner value"):
                _step(segment, wrong, 3)
    assert _size_value(upsilon(5), "sigma")[0] == 15  # Upsilon_1 has size 3
    for inner in (2, 3, 4):
        assert _step(generic_body, inner, 3) == (inner + 4 * 3, Step(upsilon(5), "GenericStep", 3, (), 4,
                                                                        upsilon_shift))


def test_trace_contributions_telescope():
    for seed in range(100):
        delta = random_polygon(seed, 5)
        for shape, base in (("sigma", -2), ("square", -1)):
            value, trace = _size_value(delta, shape)
            assert base + sum(s.contribution * s.count for s in trace) == value


def _mutant_corpus(box3_census):
    """census(3) and an image of each, random polygons up to k = 160, Weierstrass triangles and Upsilon_d.

    Every polygon is built here, so none holds a square entry yet: the
    checked square certificate is kept on its polygon, and a kept entry is
    read, not built again through a mutant.
    """
    corpus = [hull(d.vertices) for d in box3_census]
    corpus += [apply_map(random_unimodular_map(i), d) for i, d in enumerate(box3_census)]
    corpus += [random_polygon(seed, k) for k in (5, 12, 40, 80, 160) for seed in range(10)]
    return corpus + [weierstrass(g) for g in range(1, 40)] + [upsilon(d) for d in range(1, 16)]


def test_a_reach_one_too_large_fails_every_certificate(box3_census, heptagon, monkeypatch, capsys):
    # each certificate checks that its witness reaches the value off the
    # reduced basis, the box through the square entry it shares
    basis_map = latsize.size._basis_map

    def one_more(delta, shape):
        w, reach, phi = basis_map(delta, shape)
        return w, reach + 1, phi

    corpus = [hull([]), *_mutant_corpus(box3_census)]
    monkeypatch.setattr(latsize.size, "_basis_map", one_more)
    for delta in corpus:
        # the empty polygon has no box
        for size in (lattice_size_sigma, lattice_size_square, minimal_box)[:2 if delta.is_empty else 3]:
            with pytest.raises(InternalConsistencyError, match="witness reaches"):
                size(delta)
        assert "_square" not in delta.__dict__, delta
    vertices = "--vertices=" + ";".join(f"{x},{y}" for x, y in heptagon.vertices)
    for argv in (["sigma"], ["sigma", "--trace"], ["sigma", "--verify"], ["square", "--trace"], ["box"],
                 ["box", "--witness", "--json"]):
        assert run_command(argv + [vertices]).exit_code == 4, argv
        assert "witness reaches" in capsys.readouterr().err, argv


def _rows_swapped(phi):
    return AffineUnimodularMap(phi.m21, phi.m22, phi.m11, phi.m12, phi.t2, phi.t1)


def _shifted_by_one(phi):
    return AffineUnimodularMap(phi.m11, phi.m12, phi.m21, phi.m22, phi.t1 + 1, phi.t2)


@pytest.mark.parametrize("mutant", [_rows_swapped, _shifted_by_one])
def test_a_square_witness_that_is_no_minimal_box_fails_the_box_and_the_square(mutant, box3_census, heptagon,
                                                                              monkeypatch, capsys):
    # the square witness is checked as the minimal box: its image spans
    # exactly [0, w] x [0, b]. Rows (long, short) map into [0, b] x [0, w],
    # which lies in b * square, and an x translation one too large maps into
    # [1, w + 1] x [0, b], which does too when w < b. A check of the least
    # and largest coordinate over both axes passes both there. The swap
    # is a minimal box again where w = b, so it passes there
    basis_map = latsize.size._basis_map

    def mutated(delta, shape):
        w, reach, phi = basis_map(delta, shape)
        return w, reach, mutant(phi) if shape == "square" else phi

    corpus = _mutant_corpus(box3_census)
    boxes = [minimal_box(hull(d.vertices)) for d in corpus]
    monkeypatch.setattr(latsize.size, "_basis_map", mutated)
    raised = 0
    for delta, box in zip(corpus, boxes):
        if mutant is _rows_swapped and box.a == box.b:
            assert minimal_box(delta) == box._replace(witness=_rows_swapped(box.witness)), delta
            continue
        for size in (minimal_box, lattice_size_square):
            with pytest.raises(InternalConsistencyError, match="witness reaches"):
                size(delta)
        raised += 1
    assert raised > 1000, raised
    vertices = "--vertices=" + ";".join(f"{x},{y}" for x, y in heptagon.vertices)
    for argv in (["box", "--witness"], ["box", "--witness", "--json"], ["square", "--witness"]):
        assert run_command(argv + [vertices]).exit_code == 4, argv
        assert "witness reaches" in capsys.readouterr().err, argv


def test_a_trace_that_disagrees_fails(heptagon, monkeypatch, capsys):
    # the trace runs the recursion and must reach the certificate's value
    recursion = latsize.size._size_value
    monkeypatch.setattr(latsize.size, "_size_value", lambda d, shape: (recursion(d, shape)[0] + 1, ()))
    for size in (lattice_size_sigma, lattice_size_square):
        cert = size(heptagon)
        with pytest.raises(InternalConsistencyError, match="the recursion gives"):
            cert.trace
    vertices = "--vertices=" + ";".join(f"{x},{y}" for x, y in heptagon.vertices)
    for argv in (["sigma", "--trace"], ["sigma", "--verify"], ["square", "--trace"], ["square", "--verify"]):
        assert run_command(argv + [vertices]).exit_code == 4, argv
        assert "the recursion gives" in capsys.readouterr().err, argv
    assert run_command(["sigma", vertices]) == (0, "10\n")


def test_reading_a_trace_runs_the_recursion_to_the_basis_value(box3_census):
    # value and witness come from the reduced basis; the trace peels, and
    # its contributions telescope from the empty-hull base to that value
    for delta in (hull([]), *run_corpus(box3_census), *(weierstrass(g) for g in range(1, 40))):
        for size in (lattice_size_sigma, lattice_size_square):
            cert = size(delta)
            steps = sum(step.contribution * step.count for step in cert.trace)
            assert _BASE[cert.shape] + steps == cert.value, (delta, cert.shape)


def _frame_reach(delta, frame):
    return sum(max(v[0] * x + v[1] * y for x, y in delta.vertices) for v in frame)


def _neighbour_frames(frame):
    """The 13 moves at a Sigma frame (v1, v2, v3), written out one by one."""
    for i, j, l in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        for k in (1, -1):
            moved = list(frame)
            moved[i] = (frame[i][0] + k * frame[j][0], frame[i][1] + k * frame[j][1])
            moved[l] = (frame[l][0] - k * frame[j][0], frame[l][1] - k * frame[j][1])
            yield tuple(moved)
    yield tuple((-a, -b) for a, b in frame)


def test_the_sigma_check_fails_exactly_where_a_neighbouring_frame_reaches_less(box3_census, monkeypatch):
    # witnesses built from seeded random frames: the check passes a frame
    # that no move lowers and raises on any other, and every frame it
    # raises on reaches more than the Sigma size; every frame it passes
    # reaches the Sigma size, as the conjecture behind the check says
    frames = []
    for i, delta in enumerate(box3_census[::3]):
        for seed in range(4):
            phi = random_unimodular_map(1000 * seed + i)
            u1, u2 = (phi.m11, phi.m12), (phi.m21, phi.m22)
            frame = ((-u1[0], -u1[1]), (-u2[0], -u2[1]), (u1[0] + u2[0], u1[1] + u2[1]))
            dots1 = [u1[0] * x + u1[1] * y for x, y in delta.vertices]
            dots2 = [u2[0] * x + u2[1] * y for x, y in delta.vertices]
            frames.append((delta, frame, AffineUnimodularMap(*u1, *u2, -min(dots1), -min(dots2))))
    sizes = {delta: _size_value(delta, "sigma")[0] for delta, _, _ in frames}
    passed = raised = 0
    for delta, frame, witness in frames:
        reach = _frame_reach(delta, frame)
        monkeypatch.setattr(latsize.size, "_basis_map", lambda d, shape, r=reach, phi=witness: (None, r, phi))
        locally_least = all(_frame_reach(delta, moved) >= reach for moved in _neighbour_frames(frame))
        if locally_least:
            assert lattice_size_sigma(delta).value == reach == sizes[delta], (delta, frame)
            passed += 1
        else:
            with pytest.raises(InternalConsistencyError, match="reaches .*, below the value"):
                lattice_size_sigma(delta)
            assert reach > sizes[delta], (delta, frame)
            raised += 1
    assert passed > 200 and raised > 2000, (passed, raised)


def _sign_choices(delta):
    """Each sign choice (s1, s2) of _SIGNS with the reach and map of the rows (s1 * short, s2 * long).

    Each from its own dot lists; the map translates by minus the least dot
    of each row.
    """
    short, long = _checked_basis(delta)[:2]
    for s1, s2 in latsize.size._SIGNS:
        u1, u2 = (s1 * short[0], s1 * short[1]), (s2 * long[0], s2 * long[1])
        dots1 = [u1[0] * x + u1[1] * y for x, y in delta.vertices]
        dots2 = [u2[0] * x + u2[1] * y for x, y in delta.vertices]
        reach = max(s + t for s, t in zip(dots1, dots2)) - min(dots1) - min(dots2)
        yield (s1, s2), reach, AffineUnimodularMap(*u1, *u2, -min(dots1), -min(dots2))


@pytest.mark.parametrize("dropped", latsize.size._SIGNS)
def test_a_dropped_sign_choice_fails_the_default_sigma(dropped, box3_census, monkeypatch):
    # a basis map that never tries one of the four sign choices, and takes
    # the first least of the other three, reaches more than the Sigma size
    # on some polygons; the default check raises on each of them
    corpus = [*box3_census, *(apply_map(random_unimodular_map(i), d) for i, d in enumerate(box3_census))]
    sizes = [lattice_size_sigma(delta).value for delta in corpus]

    def without_dropped(delta, shape):
        w = _checked_basis(delta)[2]
        return min(((w, reach, phi) for signs, reach, phi in _sign_choices(delta) if signs != dropped),
                   key=lambda choice: choice[1])

    monkeypatch.setattr(latsize.size, "_basis_map", without_dropped)
    wrong = 0
    for delta, size in zip(corpus, sizes):
        if without_dropped(delta, "sigma")[1] == size:
            assert lattice_size_sigma(delta).value == size, delta
            continue
        wrong += 1
        with pytest.raises(InternalConsistencyError, match="below the value"):
            lattice_size_sigma(delta)
    assert wrong > 100, wrong


def _guard_rows():
    """The rows of the guard matrix: inputs inside the coordinate guard whose chains no peel walks in time.

    Each with its (width, Sigma size, square size) where it is known in
    closed form, else None.
    """
    n, m = 2**31, 2**12
    yield random_polygon(0, n), None
    yield random_polygon(1, n), None
    yield hull([(-n, -n), (n, -n + 5), (n - 7, n), (-n + 3, n - 1)]), None
    yield hull([(0, 0), (n, 0), (0, 2)]), (2, n, n)
    yield apply_map(fibonacci_shear(43), standard_triangle(1)), (1, 1, 1)
    yield standard_triangle(n), (n, n, n)
    yield hull([(i, i * i) for i in range(m)] + [(i, 2 * m * m - i * i) for i in range(m)]), None


def test_default_sizes_peel_nothing_at_the_guard(monkeypatch):
    def no_peel(*args):
        raise AssertionError("a default call walked the chain or scanned columns")

    for name in ("latsize.size._size_value", "latsize.size.onion_skins", "latsize.interior.onion_skins",
                 "latsize.interior._column_hull"):
        monkeypatch.setattr(name, no_peel)
    with alarm(2):
        for delta, known in _guard_rows():
            w = lattice_width(delta).width
            sig, sq, box = lattice_size_sigma(delta), lattice_size_square(delta), minimal_box(delta)
            assert (box.a, box.b) == (w, sq.value) and w <= sq.value <= sig.value <= 2 * sq.value, delta
            assert known is None or (w, sig.value, sq.value) == known, delta
            # the images may leave the guard, so the witnesses map the vertices one by one
            assert all(in_sigma(sig.value, sig.witness.apply(v)) for v in delta.vertices), delta
            assert all(in_box(sq.value, sq.value, sq.witness.apply(v)) for v in delta.vertices), delta
        hyperelliptic = "--poly=y^2 + x^2147483648 + 1"
        assert run_command(["sigma", hyperelliptic]) == (0, "2147483648\n")
        assert run_command(["square", hyperelliptic]) == (0, "2147483648\n")
        sliver = "--vertices=0,0;433494437,267914296;267914296,165580141"
        assert run_command(["sigma", sliver]) == (0, "1\n")


# --- fits -------------------------------------------------------------------


def test_fit_examples(heptagon):
    two_sigma = standard_triangle(2)
    phi = fit_into(two_sigma, "sigma", 2)
    assert phi is not None
    assert all(in_sigma(2, v) for v in apply_map(phi, two_sigma).vertices)
    assert fit_into(rectangle(1, 1), "sigma", 1) is None
    assert fit_into(heptagon, "square", 7) is None
    assert fit_into(heptagon, "square", 8) is not None


def test_fit_degenerate_and_box():
    assert fit_into(hull([(5, 5)]), "sigma", 0) is not None
    seg = hull([(0, 0), (4, 2)])
    assert fit_into(seg, "sigma", 1) is None
    phi = fit_into(seg, "box", (0, 2))
    assert phi is not None
    assert all(in_box(0, 2, v) for v in apply_map(phi, seg).vertices)
    with pytest.raises(ValueError):
        fit_into(seg, "box", (3, 2))
    with pytest.raises(EmptyPolygonError):
        fit_into(hull([]), "sigma", 1)


def test_fit_rejects_unknown_shape():
    for delta in (standard_triangle(3), hull([(1, 1)]), hull([(0, 0), (2, 0)])):
        with pytest.raises(ValueError):
            fit_into(delta, "nonsense", 3)
    with pytest.raises(ValueError):
        oracle_size(standard_triangle(3), "nonsense")
    with pytest.raises(ValueError, match="non-negative"):
        fit_into(standard_triangle(3), "sigma", -1)


def test_segment_witnesses_reach_both_targets():
    for dx in range(-6, 7):
        for dy in range(0, 7):
            seg = hull([(3, -2), (3 + dx, -2 + dy)])
            if not seg.is_segment:
                continue
            length = integral_length(*seg.vertices)
            flat = apply_map(fit_into(seg, "sigma", length), seg)
            assert flat == hull([(0, 0), (length, 0)])
            assert fit_into(seg, "square", length - 1) is None
            upright = apply_map(fit_into(seg, "box", (length - 1, length)), seg)
            assert upright == hull([(0, 0), (0, length)])
            assert apply_map(minimal_box(seg).witness, seg) == upright


def test_every_basis_reader_rejects_a_basis_one_pass_short(monkeypatch):
    # the check w <= f(long) <= f(long +- short) is made before the memo
    # entry is stored, so a reduction one Gauss pass short of reduced, with
    # its widths and dot lists made honestly, stops the width, the box, both
    # size witnesses and the oracle alike, each on a fresh polygon, and
    # leaves no entry behind
    thin = hull([(0, 0), (5, 0), (0, 2)])
    readers = (lattice_width, minimal_box, lattice_size_square, lattice_size_sigma,
               lambda d: fit_into(d, "square", 5))
    for delta in (thin, apply_map(random_unimodular_map(7), thin)):
        short, long = _checked_basis(delta)[:2]

        def entry(r1, r2):
            line = tuple(width_along(delta, (r2[0] + j * r1[0], r2[1] + j * r1[1])) for j in (-1, 0, 1))
            dots1, dots2 = (tuple(u[0] * x + u[1] * y for x, y in delta.vertices) for u in (r1, r2))
            return r1, r2, width_along(delta, r1), line, dots1, dots2

        # a pass along the line takes long + 3 * short back to long; a swap
        # puts the narrower row first
        for bad in (entry(short, (long[0] + 3 * short[0], long[1] + 3 * short[1])), entry(long, short)):
            with monkeypatch.context() as patch:
                patch.setattr("latsize.width._gauss_reduce", lambda d, bad=bad: bad)
                for op in readers:
                    fresh = hull(delta.vertices)
                    with pytest.raises(InternalConsistencyError):
                        op(fresh)
                    assert "_basis" not in fresh.__dict__, (fresh, bad)
                    # a bad reduction is not kept, so a second read reduces and raises again
                    with pytest.raises(InternalConsistencyError):
                        op(fresh)
        assert fit_into(delta, "square", 5) is not None


def test_fit_witness_is_deterministic(heptagon):
    assert fit_into(heptagon, "sigma", 10) == fit_into(heptagon, "sigma", 10)


def test_sigma_witness_is_the_first_least_sign_choice(box3_census):
    # each of the four sign choices (+-short, +-long) from its own dot lists,
    # in the fixed order; ties between choices are common, so the order shows
    assert latsize.size._SIGNS == ((1, 1), (1, -1), (-1, 1), (-1, -1))
    ties = 0
    for i, delta in enumerate(box3_census):
        image = apply_map(random_unimodular_map(i), delta)
        choices = [(reach, phi) for _, reach, phi in _sign_choices(image)]
        least = min(reach for reach, _ in choices)
        ties += [reach for reach, _ in choices].count(least) > 1
        assert lattice_size_sigma(image).witness == next(phi for reach, phi in choices if reach == least), image
    assert ties > 100


# sha256 over (lattice_width, sigma value and witness, square value and
# witness, box) of each polygon of the default chain on census(3), one image
# of each and random_polygon(s, k) for k in (5, 40, 160), s < 50. It pins
# which reduced basis, and so which witness, the chain picks; it was taken
# with the sweeps still building a list of dots, before width._extremes.
_CHAIN_SHA256 = "313844500766a41fb7b374fbf8fb7b09a0bb5f9e8f15fb9c65e02e32780aae24"


def test_the_default_chain_outputs_are_pinned(box3_census):
    # every polygon is built here, so each call reduces and checks afresh
    corpus = [hull(d.vertices) for d in box3_census]
    corpus += [apply_map(random_unimodular_map(i), d) for i, d in enumerate(box3_census)]
    corpus += [random_polygon(s, k) for k in (5, 40, 160) for s in range(50)]
    digest = hashlib.sha256()
    for delta in corpus:
        sigma, square, box = lattice_size_sigma(delta), lattice_size_square(delta), minimal_box(delta)
        row = (lattice_width(delta), sigma.value, sigma.witness._key(), square.value, square.witness._key(),
               box.a, box.b, box.witness._key())
        digest.update(repr(row).encode() + b"\n")
    assert digest.hexdigest() == _CHAIN_SHA256


# The six forms a * x + b * y whose extremes _frame_extremes takes, in its order.
_FORMS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1))
# Coordinates and map fields far past the 2**31 coordinate guard.
_BIG = st.integers(-2**40, 2**40)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.tuples(_BIG, _BIG), min_size=1, max_size=40), st.tuples(*[_BIG] * 6),
       st.none() | st.tuples(st.integers(0, 5), st.sampled_from([1, -1])))
@example([(7, -3)], (1, 0, 0, 1, 0, 0), None)
@example([(5, 0), (0, 0), (1, 1), (-1, 2)], (1, 0, 0, 1, 0, 0), (0, 1))
@example([(0, -5), (0, 0), (1, 1), (-1, 2)], (1, 0, 0, 1, 0, 0), (1, -1))
@example([(2**40, 2**40), (0, 0), (-1, 1)], (2**40, -3, 7, -2**40, 2**40, -2**40), (4, 1))
@example([(2**40, 2**40), (0, 0), (-1, 1)], (2**40, -3, 7, -2**40, 2**40, -2**40), (5, -1))
def test_frame_extremes_are_the_min_and_max_of_each_form(vertices, fields, lift):
    """One pass gives min and max of each form over the image, also when the first vertex alone is one of them.

    lift = (i, sign) moves the first vertex along p, or along q if the
    form i does not change along p, by one more than the spread of the
    form, so that its value there is the only largest (sign 1) or the only
    least (sign -1).
    """
    m11, m12, m21, m22, t1, t2 = fields

    def form_lists(vs):
        xs = [m11 * p + m12 * q + t1 for p, q in vs]
        ys = [m21 * p + m22 * q + t2 for p, q in vs]
        return [[a * x + b * y for x, y in zip(xs, ys)] for a, b in _FORMS]

    if lift is not None:
        i, sign = lift
        (a, b), vals = _FORMS[i], form_lists(vertices)[i]
        along_p, along_q = a * m11 + b * m21, a * m12 + b * m22
        step = (max(vals) - min(vals) + 1) * sign
        p, q = vertices[0]
        if along_p:
            p += step if along_p > 0 else -step
        elif along_q:
            q += step if along_q > 0 else -step
        vertices = [(p, q), *vertices[1:]]
        vals = form_lists(vertices)[i]
        extreme = max(vals) if sign > 0 else min(vals)
        assert not (along_p or along_q) or (vals[0] == extreme and vals.count(extreme) == 1)
    want = tuple(v for vals in form_lists(vertices) for v in (min(vals), max(vals)))
    assert _frame_extremes(vertices, *fields) == _frame_extremes(tuple(vertices), *fields) == want


def test_a_cold_sigma_certificate_makes_two_sweeps(box3_census, monkeypatch):
    # a cold Sigma call makes two sweeps: the witness's one width._pair_extremes
    # call over the entry's dot lists, and the check's one _frame_extremes
    # call. Every min and max call of size.py is on a tuple of reaches, none
    # on a sweep, and size.py calls nothing in width but the checked basis
    # and that sweep, so width._line_width runs only inside the reduction:
    # for a pass's missing neighbour and under its line search; the square
    # check is one _frame_extremes call too, which minimal_box shares
    from latsize import width

    frame_calls, least, largest, width_calls, pair_sweeps = [], [], [], set(), []
    frame_extremes = latsize.size._frame_extremes

    def counting_frame(*args):
        frame_calls.append(args)
        return frame_extremes(*args)

    def profile(frame, event, arg):
        # each call into width.py, with its caller and the caller's caller
        if event == "call" and frame.f_code.co_filename == width.__file__:
            caller = frame.f_back
            width_calls.add((caller.f_code.co_filename, caller.f_code.co_name, frame.f_code.co_name,
                             caller.f_back.f_code.co_name))
            if caller.f_code.co_filename == latsize.size.__file__ and frame.f_code.co_name == "_pair_extremes":
                pair_sweeps.append(caller.f_code.co_name)

    monkeypatch.setattr(latsize.size, "_frame_extremes", counting_frame)
    monkeypatch.setattr(latsize.size, "min", lambda *args: least.append(args) or min(*args), raising=False)
    monkeypatch.setattr(latsize.size, "max", lambda *args: largest.append(args) or max(*args), raising=False)
    corpus = [hull(d.vertices) for d in box3_census] + [random_polygon(s, k) for k in (5, 40) for s in range(20)]
    for delta in corpus:
        for log in (frame_calls, least, largest, pair_sweeps):
            log.clear()
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            lattice_size_sigma(delta)
        finally:
            sys.setprofile(previous)
        assert len(frame_calls) == 1 and frame_calls[0][0] is delta.vertices, delta
        assert pair_sweeps == ([] if delta.is_empty else ["_basis_map"]), delta
        assert [len(args[0]) for args in least] == [4, 7] and largest == [], delta
        frame_calls.clear()
        lattice_size_square(delta)
        minimal_box(delta)
        assert len(frame_calls) == 1, delta
    from_size = {callee for path, _, callee, _ in width_calls if path == latsize.size.__file__}
    line_callers = {(path, name, up) for path, name, callee, up in width_calls if callee == "_line_width"}
    assert from_size == {"_checked_basis", "_pair_extremes"}, from_size
    assert line_callers == {(width.__file__, "_min_convex", "_gauss_reduce"),
                            (width.__file__, "_gauss_reduce", "_checked_basis")}, line_callers


# --- minimal boxes ----------------------------------------------------------


def test_minimal_box_examples(heptagon):
    cert = minimal_box(rectangle(2, 5))
    assert (cert.a, cert.b) == (2, 5)
    assert apply_map(cert.witness, rectangle(2, 5)) == rectangle(2, 5)
    cert = minimal_box(hull([(0, 0), (7, 0), (0, 2)]))
    assert (cert.a, cert.b) == (2, 7)
    cert = minimal_box(heptagon)
    assert (cert.a, cert.b) == (5, 8)
    image = apply_map(cert.witness, heptagon)
    assert all(in_box(5, 8, v) for v in image.vertices)


def test_minimal_box_degenerate():
    cert = minimal_box(hull([(3, 7)]))
    assert (cert.a, cert.b) == (0, 0)
    cert = minimal_box(hull([(0, 0), (6, 4)]))
    assert (cert.a, cert.b) == (0, 2)
    seg_image = apply_map(cert.witness, hull([(0, 0), (6, 4)]))
    assert all(in_box(0, 2, v) for v in seg_image.vertices)
    with pytest.raises(EmptyPolygonError):
        minimal_box(hull([]))


def test_minimal_box_second_width_matches_square_size(box3_census):
    # the box reads the reduced basis; the recursions are a second route
    polygons = [random_polygon(seed, 5) for seed in range(200)]
    polygons += [d for i, delta in enumerate(box3_census) for d in (delta, apply_map(random_unimodular_map(i), delta))]
    polygons += [weierstrass(g) for g in range(1, 40)] + [upsilon(d) for d in range(1, 16)]
    for delta in polygons:
        cert = minimal_box(delta)
        assert cert.a == lattice_width(delta).width == lattice_width_recursive(delta)[0], delta
        assert cert.b == _size_value(delta, "square")[0], delta
        image = apply_map(cert.witness, delta)
        assert all(in_box(cert.a, cert.b, v) for v in image.vertices)


# --- cross-cutting checks ---------------------------------------------------


def test_chain_inequality():
    for seed in range(200):
        delta = random_polygon(seed, 5)
        w = lattice_width(delta).width
        sq = _size_value(delta, "square")[0]
        sg = _size_value(delta, "sigma")[0]
        assert w <= sq <= sg <= 2 * sq


def test_witness_containment_on_random_sample():
    for seed in range(60):
        delta = random_polygon(seed, 5)
        sig = lattice_size_sigma(delta)
        assert all(in_sigma(sig.value, v) for v in apply_map(sig.witness, delta).vertices)
        sq = lattice_size_square(delta)
        assert all(in_box(sq.value, sq.value, v) for v in apply_map(sq.witness, delta).vertices)


def test_values_agree_with_oracle_sample():
    for seed in range(120):
        delta = random_polygon(seed, 4)
        assert _size_value(delta, "sigma")[0] == oracle_size(delta, "sigma")
        assert _size_value(delta, "square")[0] == oracle_size(delta, "square")


def test_translation_invariance():
    delta = weierstrass(3)
    moved = translated(delta, (-11, 23))
    assert _size_value(moved, "sigma")[0] == _size_value(delta, "sigma")[0]
    assert _size_value(moved, "square")[0] == _size_value(delta, "square")[0]


_points = st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=9)
_shift = st.integers(-20, 20)


@settings(max_examples=200, deadline=None)
@given(_points, st.integers(-9, 9), st.integers(-9, 9), _shift, _shift)
def test_certificates_property(points, m, n, t1, t2):
    delta = hull(points)
    shear = AffineUnimodularMap(1, m, 0, 1, t1, t2).compose(AffineUnimodularMap(1, 0, n, 1, 0, 0))
    results = []
    for poly in (delta, apply_map(shear, delta)):
        sig, sq, box = lattice_size_sigma(poly), lattice_size_square(poly), minimal_box(poly)
        w = lattice_width(poly).width
        rules = tuple((step.rule, step.contribution) for step in sig.trace + sq.trace)
        results.append((sig.value, sq.value, w, box.a, box.b, rules))
        assert all(in_sigma(sig.value, v) for v in apply_map(sig.witness, poly).vertices)
        assert all(in_box(sq.value, sq.value, v) for v in apply_map(sq.witness, poly).vertices)
        assert all(in_box(box.a, box.b, v) for v in apply_map(box.witness, poly).vertices)
        assert w <= sq.value <= sig.value <= 2 * sq.value
        assert box.a == w == lattice_width_recursive(poly)[0]
        assert box.b == sq.value
        # the oracle shares no code with the witness route
        for shape, value in (("sigma", sig.value), ("square", sq.value)):
            assert value == 0 or fit_into(poly, shape, value - 1) is None
    assert results[0] == results[1]
