"""End-to-end acceptance gate.

Ten checks, one printed verdict line each, covering the public surface:
moment-map exactness, the five-dimensional worked example, agreement of
the block Ricci assembly with the curvature oracle, closed-form spot
checks, certificate soundness against metric search, the heisenberg(3)
membership region, exact cone sections with their Weyl symmetry,
pinching transfer along degenerations, the necessary-condition gate,
and byte-level determinism of seeded command output.

Each test records its verdict line with the shared conftest collector,
which replays every line in the terminal summary, then asserts it.
"""

import contextlib
import io
import itertools
import time
from fractions import Fraction

import numpy as np
from conftest import record_verdict

from rnlie.brackets import FLOAT, BasisChange, Bracket, act
from rnlie.certify import (
    Infeasible,
    RnWitness,
    SearchFailure,
    SrnCertificate,
    certify_srn_nice,
    certify_srn_sampled,
    necessary_condition,
    search_rn_metric,
)
from rnlie.cli import main as cli_main
from rnlie.cone import EXACT, IN, OUT, cone_membership, cone_section, weyl_invariance_check
from rnlie.corpus import corpus
from rnlie.curvature import extension_bracket, is_ricci_negative, koszul_oracle, ricci_extension
from rnlie.degeneration import (
    PinchingResult,
    diagonal_power_curve,
    heintze_curve,
    heintze_degeneration,
    limit_bracket,
    pinching_transfer,
)
from rnlie.derivations import derivation_space, diagonal_torus
from rnlie.errors import PreconditionError
from rnlie.moment import moment_map, orbit_sample, weight_matrix, weight_polytope


def _report(tag, ok, detail):
    line = "[{}] {}: {}".format("PASS" if ok else "FAIL", tag, detail)
    record_verdict(line)
    print(line, flush=True)
    assert ok, line


def _fdiag(entries):
    return np.diag([Fraction(e) for e in entries])


def _all_triples(n):
    for i, j in itertools.combinations(range(n), 2):
        for k in range(n):
            yield (i, j, k)


def test_01_moment_map_weight_exactness():
    t0 = time.perf_counter()
    worst_basis = 0.0
    checked = 0
    for n in range(3, 7):
        for triple in _all_triples(n):
            m = moment_map(Bracket(n, {triple: 1.0}, FLOAT)).matrix
            worst_basis = max(worst_basis, float(np.abs(m - weight_matrix(triple, n)).max()))
            checked += 1

    rng = np.random.default_rng(20260801)
    worst_trace = 0.0
    for run in range(1000):
        n = 3 + run % 4
        combos = list(_all_triples(n))
        count = int(rng.integers(1, 5))
        picks = rng.choice(len(combos), size=count, replace=False)
        constants = {combos[p]: float(v) for p, v in zip(picks, rng.normal(size=count))}
        if sum(v * v for v in constants.values()) < 1e-4:
            constants = {combos[picks[0]]: 1.0}
        m = moment_map(Bracket(n, constants, FLOAT)).matrix
        worst_trace = max(worst_trace, abs(float(np.trace(m)) + 1.0))

    dt = time.perf_counter() - t0
    ok = worst_basis <= 1e-12 and worst_trace <= 1e-10 and dt < 10.0
    _report(
        "acceptance 01 moment exactness",
        ok,
        "{} basis values match weight matrices (worst {:.1e}), trace -1 on 1000 "
        "random brackets (worst {:.1e}), {:.1f}s".format(checked, worst_basis, worst_trace, dt),
    )


def _example5_constants(b, tol=1e-9):
    """Read off (x, y, z, w) from a bracket supported on the example shape."""
    shape = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4)]
    stray = 0.0
    for triple, value in b.constants.items():
        if triple not in shape:
            stray = max(stray, abs(float(value)))
    assert stray <= tol, "sample left the four-bracket shape"
    return [float(b.constants.get(t, 0.0)) for t in shape]


def test_02_five_dim_example_regression():
    t0 = time.perf_counter()
    entry = corpus("tricky5")
    t5 = entry.bracket
    shape = [(0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 4)]

    rng = np.random.default_rng(20260802)
    mix = np.zeros((5, 5))
    mix[2, 3] = mix[3, 2] = 1.0
    worst_closed = 0.0
    for _ in range(100):
        x, y, z, w = rng.uniform(0.05, 2.0, size=4)
        b = Bracket(5, {shape[0]: x, shape[1]: y, shape[2]: z, shape[3]: w}, FLOAT)
        n2 = x * x + y * y + z * z + w * w
        closed = (
            x * x * weight_matrix(shape[0], 5)
            + y * y * weight_matrix(shape[1], 5)
            + z * z * weight_matrix(shape[2], 5)
            + w * w * weight_matrix(shape[3], 5)
            + (x * y - z * w) * mix
        ) / n2
        worst_closed = max(worst_closed, float(np.abs(moment_map(b).matrix - closed).max()))

    wp = weight_polytope(t5)
    points = {t: np.diag(weight_matrix(t, 5)) for t in shape}
    rectangle = set(wp.vertices) == set(shape)
    edges = [f for f in wp.hull_faces if len(f) == 2]
    rectangle = rectangle and len(edges) == 4
    if rectangle:
        neighbours = [t for t in shape if any(set(e) == {shape[0], t} for e in edges)]
        rectangle = len(neighbours) == 2
    if rectangle:
        u = points[neighbours[0]] - points[shape[0]]
        v = points[neighbours[1]] - points[shape[0]]
        opposite = [t for t in shape if t not in (shape[0], *neighbours)][0]
        rectangle = (
            abs(float(u @ v)) == 0.0
            and np.array_equal(points[neighbours[0]] + points[neighbours[1]],
                               points[shape[0]] + points[opposite])
        )

    worst_sum = worst_ab = 0.0
    sample = orbit_sample("TorusCentralizer", t5, count=40, seed=123)
    for g, _ in sample.points:
        x, y, z, w = _example5_constants(act(BasisChange(g), t5))
        n2 = x * x + y * y + z * z + w * w
        a, bb, c, d = (x * x / n2, y * y / n2, z * z / n2, w * w / n2)
        worst_sum = max(worst_sum, abs(a + bb + c + d - 1.0))
        worst_ab = max(worst_ab, abs(a * bb - c * d))

    worst_ac = 0.0
    diag_sample = orbit_sample("DiagPositive", t5, count=40, seed=124)
    for g, _ in diag_sample.points:
        x, y, z, w = _example5_constants(act(BasisChange(g), t5))
        n2 = x * x + y * y + z * z + w * w
        a, bb, c, d = (x * x / n2, y * y / n2, z * z / n2, w * w / n2)
        worst_ab = max(worst_ab, abs(a * bb - c * d))
        worst_ac = max(worst_ac, abs(a * c - bb * d))

    dt = time.perf_counter() - t0
    ok = (
        worst_closed <= 1e-10
        and rectangle
        and worst_sum <= 1e-9
        and worst_ab <= 1e-9
        and worst_ac <= 1e-9
        and dt < 30.0
    )
    _report(
        "acceptance 02 five-dim example",
        ok,
        "closed form on 100 draws (worst {:.1e}), hull is a 4-vertex rectangle ({}), "
        "orbit relations a+b+c+d=1 / ab=cd / ac=bd (worst {:.1e}, {:.1e}, {:.1e}), "
        "{:.1f}s".format(worst_closed, rectangle, worst_sum, worst_ab, worst_ac, dt),
    )


def test_03_block_ricci_matches_oracle():
    t0 = time.perf_counter()
    entries = [
        corpus("heisenberg", 3),
        corpus("heisenberg", 5),
        corpus("filiform", 4),
        corpus("filiform", 5),
        corpus("filiform", 6),
        corpus("tricky5"),
        corpus("abelian", 3),
        corpus("abelian", 4),
    ]
    rng = np.random.default_rng(20260803)
    worst_ricci = worst_mixed = 0.0
    pairs = non_normal_pairs = 0
    for entry in entries:
        bf = entry.bracket.to_float()
        basis = derivation_space(bf, scalars="float")
        torus = diagonal_torus(entry.bracket)
        for j in range(25):
            if j % 5 == 0 and torus.dim > 0:
                coords = rng.integers(-2, 4, size=torus.dim)
                if not coords.any():
                    coords[0] = 1
                D = np.diag([float(e) for e in torus.diagonal_entries(tuple(int(c) for c in coords))])
            else:
                D = sum(c * B for c, B in zip(rng.normal(size=len(basis)), basis))
            block = ricci_extension(D, bf)
            oracle = koszul_oracle(extension_bracket(D, bf))
            sym = 0.5 * (oracle.ricci + oracle.ricci.T)
            gap = np.abs(block.assembled() - sym)
            worst_ricci = max(worst_ricci, float(gap.max()))
            worst_mixed = max(worst_mixed, float(gap[0, 1:].max()))
            non_normal_pairs += float(np.abs(D @ D.T - D.T @ D).max()) > 1e-12
            pairs += 1

    dt = time.perf_counter() - t0
    ok = pairs == 200 and worst_ricci <= 1e-9 and non_normal_pairs >= 40 and dt < 60.0
    _report(
        "acceptance 03 block Ricci vs oracle",
        ok,
        "{} closed-form pairs agree entrywise with the oracle (worst {:.1e}), {} with "
        "non-normal derivations; worst mixed-row gap {:.1e}, {:.1f}s".format(
            pairs, worst_ricci, non_normal_pairs, worst_mixed, dt),
    )


def test_04_closed_form_spot_checks():
    worst_abelian = 0.0
    for n in range(1, 7):
        block = ricci_extension(np.eye(n), corpus("abelian", n).bracket.to_float())
        worst_abelian = max(
            worst_abelian, float(np.abs(block.assembled() + n * np.eye(n + 1)).max())
        )

    h3 = corpus("heisenberg", 3).bracket
    spectrum = np.sort(ricci_extension(np.diag([1.0, 1.0, 2.0]), h3.to_float()).eigenvalues())
    expected = np.array([-7.5, -6.0, -4.5, -4.5])
    worst_h3 = float(np.abs(spectrum - expected).max())

    ok = worst_abelian <= 1e-12 and worst_h3 <= 1e-10
    _report(
        "acceptance 04 closed-form spot checks",
        ok,
        "abelian identity derivation gives -n*I for n<=6 (worst {:.1e}); "
        "heisenberg(3) diag(1,1,2) spectrum is (-15/2, -6, -9/2, -9/2) "
        "(worst {:.1e})".format(worst_abelian, worst_h3),
    )


def _sweep_cases():
    """100 derivation cases across the corpus, mixing in and out of the cone."""
    h3 = corpus("heisenberg", 3).bracket
    h5 = corpus("heisenberg", 5).bracket
    f4 = corpus("filiform", 4).bracket
    f5 = corpus("filiform", 5).bracket
    t5 = corpus("tricky5").bracket
    rng = np.random.default_rng(20260805)

    cases = []
    for a in (-3, -2, -1, 1, 2, 3):
        for b in (-3, -2, -1, 1, 2, 3):
            cases.append(("nice", h3, _fdiag((a, b, a + b))))
    for _ in range(28):
        a, b, c = (int(v) for v in rng.integers(-3, 4, size=3))
        if a == b == c == 0:
            a = 1
        cases.append(("nice", h5, _fdiag((a, b, c, a + b - c, a + b))))
    for _ in range(18):
        s, t = (int(v) for v in rng.integers(-3, 4, size=2))
        if s == t == 0:
            s = 1
        cases.append(("nice", f5, _fdiag((s, t, s + t, 2 * s + t, 3 * s + t))))
    for _ in range(12):
        s, t = (int(v) for v in rng.integers(-3, 4, size=2))
        if s == t == 0:
            t = 1
        cases.append(("nice", f4, _fdiag((s, t, s + t, 2 * s + t))))
    for _ in range(6):
        a, b = (int(v) for v in rng.integers(-2, 4, size=2))
        if a == b == 0:
            a = 1
        cases.append(("sampled", t5, _fdiag((a, b, a + b, a + b, 2 * a + b))))
    return cases


def test_05_certificates_back_search_witnesses():
    t0 = time.perf_counter()
    cases = _sweep_cases()
    certified = verified = 0
    worst_lambda = float("-inf")
    for idx, (route, b, D) in enumerate(cases):
        try:
            if route == "nice":
                result = certify_srn_nice(D, b)
            else:
                sample = orbit_sample("TorusCentralizer", b, count=24, seed=900 + idx)
                result = certify_srn_sampled(D, b, sample)
        except PreconditionError:
            continue
        if not isinstance(result, SrnCertificate):
            continue
        certified += 1
        Df = np.array([[float(v) for v in row] for row in D])
        witness = search_rn_metric(Df, b, seed=1000 + idx)
        if isinstance(witness, RnWitness) and witness.lambda_max < -1e-6:
            verified += 1
            worst_lambda = max(worst_lambda, witness.lambda_max)

    dt = time.perf_counter() - t0
    ok = len(cases) == 100 and certified > 0 and verified == certified and dt < 300.0
    _report(
        "acceptance 05 certificate soundness",
        ok,
        "{} of 100 sweep cases certified, all {} backed by search witnesses "
        "(least negative lambda {:.2e}), {:.1f}s".format(certified, verified, worst_lambda, dt),
    )


def test_06_heisenberg3_membership_grid():
    t0 = time.perf_counter()
    h3 = corpus("heisenberg", 3).bracket
    grid = [Fraction(-2) + Fraction(4 * i, 49) for i in range(50)]
    disagreements = 0
    for a in grid:
        for b in grid:
            expected = 2 * a + b > 0 and a + 2 * b > 0
            got = cone_membership(np.diag([a, b, a + b]), h3) == IN
            if got != expected:
                disagreements += 1
    dt = time.perf_counter() - t0
    ok = disagreements == 0
    _report(
        "acceptance 06 heisenberg(3) grid",
        ok,
        "50x50 exact grid matches the half-plane pair 2a+b>0, a+2b>0 "
        "({} disagreements), {:.1f}s".format(disagreements, dt),
    )


# heisenberg(5) has [e1,e2]=e5 and [e3,e4]=e5, so its diagonal torus is
# D = diag(a1, T-a1, a3, T-a3, T) and trace 1 puts T at 1/3.  The closure
# of the margin system over the two weight vectors is D - b1 w1 - b2 w2 >= 0
# with b >= 0, that is b1 >= f(a1), b2 >= f(a3) and b1 + b2 <= T, where
# f(x) = max(0, -x, x-T) is the distance from x to [0, T].  Eliminating b
# leaves f(a1) + f(a3) <= T: the square [0,T]^2 grown by an L1 ball of
# radius T, an octagon with vertices at (a1, a3) in T*{(-1,0), (-1,1),
# (0,-1), (0,2), (1,-1), (1,2), (2,0), (2,1)}.  The square is only its
# nonnegative part.
_H5_T = Fraction(1, 3)
_H5_WITNESS_POINTS = ((Fraction(-1, 4), Fraction(1, 20)), (Fraction(1, 2), Fraction(1, 10)))
_H5_OUT_POINTS = ((Fraction(-1, 5), Fraction(-1, 5)), (Fraction(-7, 20), Fraction(1, 10)))


def _h5_distance_sum(a1, a3):
    """f(a1) + f(a3), with f(x) = max(0, -x, x-T) the distance to [0, T]."""
    return sum(max(Fraction(0), -x, x - _H5_T) for x in (a1, a3))


def _h5_octagon_vertices():
    """Vertices of {f(a1) + f(a3) <= T}, built from the pieces of f.

    f is the max of the affine pieces -x, 0 and x-T, so the region is cut
    out by the rows p(a1) + q(a3) <= T over all piece pairs (p, q).  A
    point of the region where two independent rows are tight is a vertex.
    """
    T = _H5_T
    pieces = ((-1, 0), (0, 0), (1, -T))  # x -> slope*x + offset
    rows = [((p[0], q[0]), T - p[1] - q[1]) for p in pieces for q in pieces]
    vertices = set()
    for (u, r), (v, s) in itertools.combinations(rows, 2):
        det = u[0] * v[1] - u[1] * v[0]
        if det == 0:
            continue
        point = (Fraction(r * v[1] - u[1] * s, det), Fraction(u[0] * s - v[0] * r, det))
        if _h5_distance_sum(*point) <= T:
            vertices.add(point)
    return vertices


def _h5_entries(a1, a3):
    return (a1, _H5_T - a1, a3, _H5_T - a3, _H5_T)


def test_07_exact_sections_segment_and_square():
    h5 = corpus("heisenberg", 5).bracket
    s3 = cone_section(corpus("heisenberg", 3).bracket, 1)
    s5 = cone_section(h5, 1)
    w3 = weyl_invariance_check(s3)
    w5 = weyl_invariance_check(s5)
    worst_weyl = max(w3.worst_distance, w5.worst_distance)

    segment_ok = s3.exactness == EXACT and len(s3.vertices) == 2

    torus = diagonal_torus(h5)
    closed_form = {torus.coords_of(_h5_entries(a1, a3)) for a1, a3 in _h5_octagon_vertices()}
    closed_form_ok = len(closed_form) == 8 and set(s5.vertices) == closed_form
    octagon_ok = s5.exactness == EXACT and closed_form_ok

    corners = [(Fraction(x), Fraction(y)) for x in (0, _H5_T) for y in (0, _H5_T)]
    corners_ok = all(cone_membership(_fdiag(_h5_entries(*c)), h5) == IN for c in corners)

    witness_lambdas = []
    witnesses_ok = True
    for idx, (a1, a3) in enumerate(_H5_WITNESS_POINTS):
        witnesses_ok &= 0 < _h5_distance_sum(a1, a3) < _H5_T  # octagon, not square
        Df = np.diag([float(e) for e in _h5_entries(a1, a3)])
        found = search_rn_metric(Df, h5, seed=700 + idx)
        if isinstance(found, RnWitness):
            flag, lam = is_ricci_negative(Df, h5, found.params)
            witnesses_ok &= flag and lam < -1e-6 and found.lambda_max < -1e-6
        else:
            lam = found.lambda_best
            witnesses_ok = False
        witness_lambdas.append(lam)

    out_margins = []
    outside_ok = True
    for a1, a3 in _H5_OUT_POINTS:
        outside_ok &= _h5_distance_sum(a1, a3) > _H5_T
        D = _fdiag(_h5_entries(a1, a3))
        res = certify_srn_nice(D, h5)
        outside_ok &= isinstance(res, Infeasible) and res.margin < 0
        outside_ok &= cone_membership(D, h5) == OUT
        out_margins.append(float(res.margin))

    weyl_ok = w3.ok and w5.ok and worst_weyl <= 1e-6

    ok = segment_ok and octagon_ok and corners_ok and witnesses_ok and outside_ok and weyl_ok
    _report(
        "acceptance 07 exact sections",
        ok,
        "heisenberg(3) trace-1 section is a segment ({} vertices); heisenberg(5) section "
        "has {} vertices, equal to the closed-form octagon f(a1)+f(a3) <= 1/3 ({}); square "
        "corners In ({}); witnesses outside the square at (-1/4, 1/20) and (1/2, 1/10) "
        "(lambda_max {:.2e}, {:.2e}); exact Out just outside the octagon at (-1/5, -1/5) and "
        "(-7/20, 1/10) (margins {:.2e}, {:.2e}); Weyl invariance holds (worst {:.1e})".format(
            len(s3.vertices), len(s5.vertices), closed_form_ok, corners_ok,
            *witness_lambdas, *out_margins, worst_weyl,
        ),
    )


def test_08_pinching_on_corpus_curves():
    h3 = corpus("heisenberg", 3).bracket
    e3 = corpus("euclid3").bracket

    milnor = diagonal_power_curve(e3, (1, 0, 1))
    milnor_limit = limit_bracket(milnor)
    limit_scalar = float(koszul_oracle(milnor_limit).scalar)
    milnor_hit = pinching_transfer(milnor, "ScalarNegative")

    D = [[1, 0, 0], [0, 1, 0], [0, 0, 2]]
    heintze = heintze_degeneration(D, h3)
    heintze_limit = limit_bracket(heintze)
    limit_ricci = koszul_oracle(heintze_limit).ricci
    limit_lambda = float(np.linalg.eigvalsh(0.5 * (limit_ricci + limit_ricci.T)).max())
    heintze_hit = pinching_transfer(heintze, "RicciNegative")

    sec = koszul_oracle(heintze_curve(D, h3, t=10.0)).sectional
    planes = sec[~np.eye(sec.shape[0], dtype=bool)]
    planes_ok = bool(np.all(planes < 0))

    ok = (
        limit_scalar < 0
        and isinstance(milnor_hit, PinchingResult)
        and limit_lambda < 0
        and isinstance(heintze_hit, PinchingResult)
        and planes_ok
    )
    _report(
        "acceptance 08 pinching transfer",
        ok,
        "milnor curve limit has scalar {:.3f}, predicate reached at step {}; heintze "
        "curve limit has lambda_max {:.1f}, reached at step {}; heisenberg(3) extension "
        "at t=10 has every basis-plane curvature negative ({})".format(
            limit_scalar,
            getattr(milnor_hit, "index", None),
            limit_lambda,
            getattr(heintze_hit, "index", None),
            planes_ok,
        ),
    )


def test_09_necessary_gate_blocks_search():
    t0 = time.perf_counter()
    h3 = corpus("heisenberg", 3).bracket
    h5 = corpus("heisenberg", 5).bracket
    f5 = corpus("filiform", 5).bracket
    h3_plus_line = Bracket(4, {(0, 1, 2): 1})

    cases = [
        (h3, (-1, 1, 0)),
        (h3, (1, -1, 0)),
        (h3, (-2, 2, 0)),
        (h3, (2, -2, 0)),
        (h5, (1, -1, 1, -1, 0)),
        (h5, (1, -1, 2, -2, 0)),
        (f5, (4, -7, -3, 1, 5)),
        (h3_plus_line, (1, 0, 1, 0)),
    ]
    gate_failures = search_failures = 0
    for idx, (b, entries) in enumerate(cases):
        D = np.diag([float(e) for e in entries])
        if not necessary_condition(D, b):
            gate_failures += 1
        if isinstance(search_rn_metric(D, b, seed=500 + idx), SearchFailure):
            search_failures += 1

    dt = time.perf_counter() - t0
    ok = gate_failures == len(cases) and search_failures == len(cases)
    _report(
        "acceptance 09 necessary gate",
        ok,
        "all {} gate-failing derivations also exhaust the default search budget "
        "with no witness ({} searches failed), {:.1f}s".format(len(cases), search_failures, dt),
    )


def _run_cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue()


def test_10_seeded_outputs_are_byte_identical():
    t0 = time.perf_counter()
    commands = [
        [
            "certify", "--algebra", "tricky5",
            "--derivation", '["-1", "2", "1", "1", "0"]',
            "--method", "sampled", "--sample-count", "16", "--seed", "7",
        ],
        ["orbit-sample", "--algebra", "tricky5", "--count", "6", "--seed", "11"],
        ["cone", "--algebra", "tricky5", "--trace-level", "1", "--resolution", "12", "--seed", "5"],
        [
            "degenerate", "--algebra", "euclid3", "--curve", "diag:1,0,1",
            "--predicate", "ScalarNegative", "--t-max", "16",
        ],
    ]

    def run_all():
        parts = []
        for argv in commands:
            code, text = _run_cli(argv)
            parts.append("exit {}\n{}".format(code, text))
        return "".join(parts).encode()

    first = run_all()
    second = run_all()
    dt = time.perf_counter() - t0
    ok = first == second and len(first) > 0
    _report(
        "acceptance 10 determinism",
        ok,
        "two same-seed runs of 4 commands produced identical bytes "
        "({} bytes), {:.1f}s".format(len(first), dt),
    )
