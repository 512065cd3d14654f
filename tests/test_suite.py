import json
import random
import shlex
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from alcove_hecke import cli, suite
from alcove_hecke.alcove import AlcoveModel
from alcove_hecke.engine import build_engine
from alcove_hecke.errors import BoundsTooLarge, InvariantViolation, MalformedInput, Unrepresentable
from alcove_hecke.ext_weyl import ExtWeyl
from alcove_hecke.hecke import HeckeAlgebra, HeckeElement
from alcove_hecke.laurent import ONE, LaurentPolynomial
from alcove_hecke.root_datum import PRESETS
from alcove_hecke.suite import bar_invariance_solver, run_suite, spherical_window
from conftest import CUSTOM, RANK3, SEMISIMPLE, plant_length_sign_flip
from oracles import ElementTable, bar_invariance_gauss_jordan


def test_report_structure():
    report = run_suite("A1_adj", kl_maxlen=4, samples=60, names=["res-complement", "m-triangle"])
    assert report.passed
    assert [c.name for c in report.checks] == ["res-complement", "m-triangle"]
    data = report.to_dict()
    assert data["preset"] == "A1_adj"
    assert all(c["status"] == "pass" for c in data["checks"])
    tsv = report.to_tsv()
    assert tsv.endswith("overall\tpass\t\n")


def test_fault_injection_counterexample(monkeypatch):
    plant_length_sign_flip(monkeypatch)
    report = run_suite("A2_adj", kl_maxlen=4, samples=60, names=["res-complement"])
    assert not report.passed
    ce = report.checks[0].counterexample
    assert ce is not None
    assert ce["command"].startswith("alcove-hecke ")
    assert "x" in ce and "y" in ce


@pytest.mark.parametrize(
    "preset, as_file",
    [pytest.param(p, False, id=p) for p in SEMISIMPLE]
    + [pytest.param(p, True, id=f"{p}-file") for p in SEMISIMPLE],
)
def test_report_matches_golden(preset, as_file, tmp_path):
    # the default `suite run` report, byte for byte, as recorded in tests/data;
    # a JSON file holding {"preset": ...} runs with that preset's defaults
    golden = Path(__file__).parent / "data" / f"suite_{preset}.tsv"
    arg = preset
    if as_file:
        arg = str(tmp_path / f"{preset}.json")
        Path(arg).write_text(json.dumps({"preset": preset}), encoding="utf-8")
    assert run_suite(arg).to_tsv() == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["G2", "A3"])
def test_custom_report_matches_golden(name, tmp_path):
    # the G2 and A3 reports, byte for byte, of every check but
    # kl-bar-invariance: its draws ignore --maxlen, and it takes most of
    # these data's time
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CUSTOM[name]), encoding="utf-8")
    names = [check for check, _ in suite.CHECKS if check != "kl-bar-invariance"]
    golden = Path(__file__).parent / "data" / f"suite_{name}.tsv"
    assert run_suite(str(path), names=names).to_tsv() == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("preset", ["A1_adj", "B2_adj"])
def test_written_out_preset_runs_as_the_preset(preset, tmp_path, capsys):
    # the per-datum choices (default KL length, parabolic cases, the dihedral
    # check) follow the Cartan matrix, not the preset name
    path = tmp_path / f"{preset}.json"
    path.write_text(json.dumps(PRESETS[preset]), encoding="utf-8")
    outs = []
    for arg in (preset, str(path)):
        assert cli.main(["suite", "run", "--preset", arg]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_commands_quote_a_datum_path_with_a_space(monkeypatch, tmp_path):
    folder = tmp_path / "a b"
    folder.mkdir()
    path = str(folder / "A2.json")
    Path(path).write_text('{"preset": "A2_adj"}', encoding="utf-8")
    # a check's own reproducer: `wext len` on the offending element
    with monkeypatch.context() as planted:
        plant_length_sign_flip(planted)
        report = run_suite(path, names=["res-complement"])
    argv = shlex.split(report.checks[0].counterexample["command"])
    assert argv[:3] == ["alcove-hecke", "wext", "len"]
    assert argv[argv.index("--datum") + 1] == path
    assert cli.main(argv[1:]) == 0
    # the runner's fallback for a crashing check: the whole suite run
    monkeypatch.setattr(suite, "CHECKS", [("crash", lambda env: 1 / 0)])
    argv = shlex.split(run_suite(path, samples=7).checks[0].counterexample["command"])
    args = cli.build_parser().parse_args(argv[1:])
    assert (args.preset, args.samples) == (path, 7)


def test_bounds_guards():
    with pytest.raises(BoundsTooLarge):
        run_suite("A1_adj", kl_maxlen=20)
    with pytest.raises(BoundsTooLarge):
        run_suite("A1_adj", samples=10**6)


def test_unknown_preset():
    from alcove_hecke.errors import UnknownPreset

    with pytest.raises(UnknownPreset):
        run_suite("nope")


def test_descriptor_dict_rejected(monkeypatch):
    # a dict has no command-line form for the failure payload: rejected before any build
    def no_build(spec):
        raise AssertionError("built an engine")

    monkeypatch.setattr(suite, "build_engine", no_build)
    with pytest.raises(MalformedInput, match="preset name or a JSON path"):
        run_suite(CUSTOM["G2"], names=["kl-bar-invariance"])


def test_unknown_check_names_rejected(monkeypatch):
    # a retired or misspelt name would otherwise leave out its check and pass
    monkeypatch.setattr(suite, "build_engine", None)
    with pytest.raises(MalformedInput, match="proj-word-independence"):
        run_suite("A1_adj", names=["res-complement", "proj-word-independence"])


@pytest.mark.parametrize("name, differ", [("B3", 20), ("C3", 0)])
def test_proj_filtration_on_rank3_data(tmp_path, name, differ):
    # t_varsigma w0 x^{-1} has more than one reduced word for 34 of the 48
    # restricted x; on B3 the min and max words give different multisets for
    # 20 of them, and each multiset has every word-free property
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(RANK3[name]), encoding="utf-8")
    check = run_suite(str(path), names=["proj-filtration"]).checks[0]
    assert check.status == "pass", check.counterexample
    assert check.detail == (
        "exhaustive over 48 restricted elements; 34 with more than one reduced word,"
        f" {differ} whose min and max multisets differ"
    )


@pytest.mark.parametrize("name", list(RANK3))
def test_bruhat_order_on_rank3_data(tmp_path, name):
    # 60 draws of the walk against the lower set, then the order axioms on a
    # window; budget about 3 s each (the full 300 draws take about 7 s)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(RANK3[name]), encoding="utf-8")
    check = run_suite(str(path), names=["bruhat-order"], samples=60).checks[0]
    assert check.status == "pass", check.counterexample
    assert check.detail == "subword cross-check plus order axioms"


def test_bruhat_order_probes_follow_the_seed_only(monkeypatch):
    # the members of each lower set that the check compares are the same
    # whatever order the set iterates in: here, once as built and once
    # rehashed into a table ten times larger
    probes = []
    real_leq, real_lower = ExtWeyl.bruhat_leq, ExtWeyl.bruhat_lower_set
    monkeypatch.setattr(
        ExtWeyl, "bruhat_leq", lambda ext, y, x: probes.append((y, x)) or real_leq(ext, y, x))

    def rehashed(ext, x):
        lower = real_lower(ext, x)
        padding = range(-1, -10 * len(lower), -1)
        lower.update(padding)
        lower.difference_update(padding)
        return lower

    runs = []
    for lower_set in (real_lower, rehashed):
        monkeypatch.setattr(ExtWeyl, "bruhat_lower_set", lower_set)
        probes.clear()
        assert run_suite("B2_adj", names=["bruhat-order"], samples=20).passed
        runs.append(list(probes))
    assert runs[0] == runs[1]


def test_proj_filtration_fault_on_the_max_word(monkeypatch, tmp_path, capsys):
    # a max word that loses its last letter misses an endpoint label; the min
    # word is sound, so only the max-word run of the check shows it
    path = tmp_path / "G2.json"
    path.write_text(json.dumps(CUSTOM["G2"]), encoding="utf-8")
    real = ExtWeyl.reduced_expression

    def short_max(ext, x, strategy="min"):
        word, omega = real(ext, x, strategy)
        return (word[:-1] if strategy == "max" else word), omega

    monkeypatch.setattr(ExtWeyl, "reduced_expression", short_max)
    check = run_suite(str(path), names=["proj-filtration"]).checks[0]
    assert check.status == "fail" and check.detail.startswith("max word: ")
    argv = shlex.split(check.counterexample["command"])
    assert argv[1:3] == ["groth", "proj-filtration"]
    assert argv[argv.index("--strategy") + 1] == "max"
    # the command reproduces the fault under the plant, and runs clean without it
    assert cli.main(argv[1:]) == 2
    fault = check.detail.removeprefix("max word: ")
    assert f"InvariantViolation: {fault}" in capsys.readouterr().err
    monkeypatch.undo()
    assert cli.main(argv[1:]) == 0


def test_spherical_window_lengths(a2):
    window = spherical_window(a2, 5)
    assert all(a2.ext.length(w) <= 5 for w in window)
    assert all(a2.alc.in_wexts(w) for w in window)
    # windows are nested
    assert set(spherical_window(a2, 3)) <= set(window)


def test_dihedral_solver_matches_engine(a1):
    ext = a1.ext
    for lit in ["e : -2", "s1 : -4", "e : 4", "s1 : 2"]:
        x = ext.parse_element(lit)
        solved = bar_invariance_solver(a1, x)
        table = a1.hecke.kl_basis(x)
        assert solved == dict(table.items())
        for y, p in solved.items():
            assert p == LaurentPolynomial.monomial(ext.length(x) - ext.length(y))


def _solver_elements(eng, per_length=2, maxlen=5):
    """Seeded elements of W_aff of each length 2..maxlen, `per_length` of each."""
    ball = suite._waff_ball(eng, maxlen)  # Cayley-graph distance is the length
    rng = random.Random(43)
    out = []
    for n in range(2, maxlen + 1):
        out += rng.sample(sorted(x for x, d in ball.items() if d == n), per_length)
    return out


def test_solver_matches_kl_basis(datum_engine):
    for x in _solver_elements(datum_engine):
        assert bar_invariance_solver(datum_engine, x) == dict(datum_engine.hecke.kl_basis(x).items())


def test_solver_matches_gauss_jordan_oracle(datum_engine):
    # back-substitution against the old elimination over the whole system
    for x in _solver_elements(datum_engine, 2, maxlen=6):
        assert bar_invariance_solver(datum_engine, x) == bar_invariance_gauss_jordan(datum_engine, x)


@pytest.mark.parametrize("preset", ["A2_adj", "B2_adj"])
def test_solver_catches_lost_leading_term(monkeypatch, preset):
    # bar(H_y) without its H_y term, for every y below x: only the final
    # check of the equations can notice
    eng = build_engine(preset)
    hecke = eng.hecke
    real = hecke.bar
    for x in _solver_elements(eng, 1):

        def headless(a, x=x):
            out = real(a)
            if x in a.support:
                return out
            return HeckeElement({w: p for w, p in out.items() if w not in a.support})

        monkeypatch.setattr(hecke, "bar", headless)
        with pytest.raises(ArithmeticError, match="bar\\(u\\) - u"):
            bar_invariance_solver(eng, x)


@pytest.mark.parametrize("preset", ["A2_adj", "B2_adj"])
def test_solver_catches_dropped_bar_term(monkeypatch, preset):
    eng = build_engine(preset)
    hecke = eng.hecke
    real = hecke.bar

    def dropped(a):
        out = real(a)
        return HeckeElement(dict(list(out.items())[:-1]))

    want = {x: dict(hecke.kl_basis(x).items()) for x in _solver_elements(eng, 1)}
    monkeypatch.setattr(hecke, "bar", dropped)
    for x, table in want.items():
        try:
            solved = bar_invariance_solver(eng, x)
        except ArithmeticError:
            continue
        assert solved != table, eng.ext.format_element(x)


def test_solver_integrality_check_raises(monkeypatch, a1):
    # a bar expansion of the top element with half-integral lower entries
    # has a consistent system whose solution is not integral
    ext, hecke = a1.ext, a1.hecke
    x = ext.parse_element("e : -2")
    real = hecke.bar
    half = LaurentPolynomial({0: Fraction(1, 2)})

    def halved(a):
        out = real(a)
        if x not in a.support:
            return out
        return HeckeElement({w: p if w == x else p * half for w, p in out.items()})

    monkeypatch.setattr(hecke, "bar", halved)
    with pytest.raises(InvariantViolation, match="non-integral"):
        bar_invariance_solver(a1, x)


def test_kl_bar_invariance_fails_on_a_negative_coefficient(monkeypatch):
    # the least lower coefficient negated: the check names the element before
    # its bar test, which the negated element would fail too
    real = HeckeAlgebra.kl_basis

    def negated(hecke, x):
        table = real(hecke, x)
        lower = min((y for y, _ in table.items() if y != x), default=None)
        return HeckeElement({y: -p if y == lower else p for y, p in table.items()})

    monkeypatch.setattr(HeckeAlgebra, "kl_basis", negated)
    check = run_suite("A1_adj", names=["kl-bar-invariance"]).checks[0]
    assert (check.status, check.detail) == ("fail", "negative Kazhdan-Lusztig coefficient")
    monkeypatch.undo()
    ce = check.counterexample
    eng = build_engine("A1_adj")
    ext, hecke = eng.ext, eng.hecke
    x, y = ext.parse_element(ce["element"]), ext.parse_element(ce["label"])
    assert y == min(z for z, _ in hecke.kl_basis(x).items() if z != x)
    assert ce["polynomial"] == str(-hecke.kl_basis(x).coeff(y))
    argv = shlex.split(ce["command"])
    assert argv[1:3] == ["hecke", "kl"] and argv[argv.index("--y") + 1] == ce["element"]


def test_mult_triangle_runs_alone():
    # with no m-triangle values shared, the check computes them itself
    check = run_suite("A1_adj", names=["mult-triangle"]).checks[0]
    assert (check.status, check.detail) == ("pass", "exact on 26 elements")


def test_mult_triangle_alone_reports_the_m_triangle_failure(monkeypatch):
    monkeypatch.setattr(HeckeAlgebra, "inverse_m", lambda hecke, x, y: ONE)
    check = run_suite("A1_adj", names=["mult-triangle"]).checks[0]
    assert (check.status, check.detail) == ("fail", "inverse polynomial is not v^{len(w0)}")
    assert shlex.split(check.counterexample["command"])[1:3] == ["hecke", "inverse-m"]


def test_window_checks_enumerate_once_per_run(monkeypatch):
    # per-order-weights draws from one list of restricted elements, and
    # lengths-add pairs its whole window with one list of translations
    calls = {"restricted": 0, "translations": 0}
    restricted, translations = AlcoveModel.restricted_elements, suite.antidominant_translations

    def counted_restricted(alc):
        calls["restricted"] += 1
        return restricted(alc)

    def counted_translations(engine, maxlen):
        calls["translations"] += 1
        return translations(engine, maxlen)

    monkeypatch.setattr(AlcoveModel, "restricted_elements", counted_restricted)
    monkeypatch.setattr(suite, "antidominant_translations", counted_translations)
    assert run_suite("A2_adj", names=["per-order-weights"]).passed
    assert calls["restricted"] == 1
    calls["restricted"] = 0
    assert run_suite("A2_adj", names=["lengths-add"]).passed
    # one list for the pairs, and one inside spherical_window
    assert calls["translations"] == 2


@pytest.mark.parametrize("name", ["G2", "A3"])
def test_solver_cross_check_tops_up_on_custom_data(tmp_path, name):
    # one draw is almost never of length 2-5 on G2 or A3: the check tops up
    # from the Cayley ball to its three solver elements
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CUSTOM[name]), encoding="utf-8")
    report = run_suite(str(path), samples=1, names=["kl-bar-invariance"])
    assert report.passed
    assert report.checks[0].detail.endswith("solver cross-check on 3 elements")


@pytest.mark.parametrize("name", ["G2", "A3", "GL2", "B3", "C3"])
def test_datum_invariants_check_poincare_degrees_on_custom_data(tmp_path, name):
    # the degrees come from the root heights, so the Poincare check runs here too
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({**CUSTOM, **RANK3}[name]), encoding="utf-8")
    check = run_suite(str(path), names=["datum-invariants"]).checks[0]
    assert check.status == "pass", check.detail


def test_datum_invariants_check_catches_wrong_heights(monkeypatch, tmp_path):
    # heights that give the degrees (2, 2, 5) of a wrong group: the Poincare
    # series of A3's Weyl group (order 24) then disagrees
    path = tmp_path / "A3.json"
    path.write_text(json.dumps(CUSTOM["A3"]), encoding="utf-8")
    real = suite.build_engine

    def wrong_heights(spec):
        eng = real(spec)
        object.__setattr__(eng.datum, "root_heights", (1, 1, 1, 2, 3, 4))
        return eng

    monkeypatch.setattr(suite, "build_engine", wrong_heights)
    check = run_suite(str(path), names=["datum-invariants"]).checks[0]
    assert check.status == "fail" and "Poincare" in check.detail


def test_full_suite_a1_defaults_fast():
    # preset A1_adj at full default bounds: everything passes well inside 60s
    import time

    start = time.monotonic()
    report = run_suite("A1_adj")
    elapsed = time.monotonic() - start
    assert report.passed, [c.name for c in report.checks if c.status != "pass"]
    assert elapsed < 60


@pytest.mark.parametrize("preset,gens", [("A1_adj", 0), ("B2_adj", 2)])
def test_awext_counterexample_command_runs(monkeypatch, preset, gens):
    # a failing coset with `gens` generators: the empty subset, then s1+s2
    real = suite.min_rep

    def failing(alc, x, a):
        if len(a.generators) == gens:
            raise Unrepresentable("injected")
        return real(alc, x, a)

    monkeypatch.setattr(suite, "min_rep", failing)
    check = run_suite(preset, names=["awext-representatives"]).checks[0]
    assert check.status == "fail"
    argv = shlex.split(check.counterexample["command"])
    assert argv[0] == "alcove-hecke"
    assert ("--gens" in argv) == (gens > 0)
    monkeypatch.undo()
    assert cli.main(argv[1:]) == 0


# -- planted faults in the Hecke checks' failure branches ---------------------


def _rerun_planted(monkeypatch, preset, check, plant, **kwargs):
    """The failing result of `check` on one engine run twice: once to fill its
    tables, then again after plant(engine) has rewritten entries, so the
    rerun reads every entry from its table and no recursion builds on a
    planted one.  The payload's command parses and names the datum."""
    eng = build_engine(preset)
    monkeypatch.setattr(suite, "build_engine", lambda datum: eng)
    assert run_suite(preset, names=[check], **kwargs).passed
    plant(eng)
    return _failed(run_suite(preset, names=[check], **kwargs), preset)


def _failed(report, preset):
    (result,) = report.checks
    assert result.status == "fail"
    argv = shlex.split(result.counterexample["command"])
    args = cli.build_parser().parse_args(argv[1:])
    flag = "--preset" if args.command == "suite" else "--datum"
    assert argv[argv.index(flag) + 1] == preset
    return result


def _rewrite(eng, table, lengths, change):
    """Every entry of table, raw and by element, whose element has its length
    in lengths, replaced by change(x, entry)."""
    table = ElementTable(eng.hecke, table)
    for x in [x for x in table if eng.ext.length(x) in lengths]:
        table[x] = change(x, dict(table[x]))


def _at_identity(eng, change):
    """The entry's coefficient at the identity, which every C_x of W_aff has,
    replaced by change(coefficient)."""
    e = eng.ext.identity
    return lambda x, entry: {**entry, e: change(entry[e])}


def _plus_unit(c):
    """c plus the bar-invariant unit of its parity: 1 when its exponents are
    even, v + v^{-1} when they are odd."""
    return {**c, **{k: c.get(k, 0) + 1 for k in ((-1, 1) if min(c) % 2 else (0,))}}


def test_kl_dihedral_fails_on_a_planted_exponent(monkeypatch, capsys):
    # every lower coefficient v^k of positive length planted as v^{k+2}
    def plant(eng):
        _rewrite(eng, eng.hecke._kl, range(1, 11), lambda x, entry: {
            y: c if y == x else {k + 2: d for k, d in c.items()} for y, c in entry.items()})

    check = _rerun_planted(monkeypatch, "A1_adj", "kl-dihedral", plant)
    assert check.detail == "closed form fails"
    ce = check.counterexample
    argv = shlex.split(ce["command"])
    assert argv[1:3] == ["hecke", "kl"]
    assert (argv[argv.index("--x") + 1], argv[argv.index("--y") + 1]) == (ce["y"], ce["x"])
    # the command prints the true coefficient, not the planted one
    monkeypatch.undo()
    capsys.readouterr()
    assert cli.main(argv[1:]) == 0
    ext = build_engine("A1_adj").ext
    lx, ly = (ext.length(ext.parse_element(ce[k])) for k in ("x", "y"))
    assert json.loads(capsys.readouterr().out)["h"] == str(LaurentPolynomial.monomial(lx - ly))
    assert ce["got"] == str(LaurentPolynomial.monomial(lx - ly + 2))


def test_kl_dihedral_solver_fails_on_a_dropped_term(monkeypatch):
    # the identity's term dropped from C_x up to length 6: every coefficient
    # left still has the closed form, so only the solver can see it
    def plant(eng):
        e = eng.ext.identity
        _rewrite(eng, eng.hecke._kl, range(1, 7),
                 lambda x, entry: {y: c for y, c in entry.items() if y != e})

    check = _rerun_planted(monkeypatch, "A1_adj", "kl-dihedral", plant)
    assert check.detail == "bar-invariance solver disagrees"
    ext = build_engine("A1_adj").ext
    assert 1 <= ext.length(ext.parse_element(check.counterexample["x"])) <= 6


def test_a_raising_check_fails_alone(monkeypatch):
    # a MemoryError planted in the first kl_basis call, which B2's
    # kl-bar-invariance makes: that check fails naming it, its engine is
    # dropped and collected, the next check runs on a fresh one, and every
    # other row is the unplanted run's, durations aside
    def rows(report):
        return [(c.name, c.status, c.detail, c.counterexample) for c in report.checks]

    want = rows(run_suite("B2_adj"))
    real, calls = HeckeAlgebra.kl_basis, []

    def planted(hecke, x):
        calls.append(x)
        if len(calls) == 1:
            raise MemoryError
        return real(hecke, x)

    build, engines = suite.build_engine, []

    def built(datum):
        eng = build(datum)
        engines.append(weakref.ref(eng))
        return eng

    monkeypatch.setattr(HeckeAlgebra, "kl_basis", planted)
    monkeypatch.setattr(suite, "build_engine", built)
    got = rows(run_suite("B2_adj"))
    names = [c[0] for c in want]
    at = names.index("kl-bar-invariance")
    assert got[at][:3] == ("kl-bar-invariance", "fail", "exception: MemoryError()")
    assert got[:at] == want[:at] and got[at + 1:] == want[at + 1:]
    assert len(engines) == 2 and engines[0]() is None and len(calls) > 1


def test_kl_bar_invariance_fails_on_a_right_relabeling(monkeypatch):
    # outside W_aff, C_{omega a} planted as C_a H_omega, the element of a
    # omega: bar invariant and nonnegative, but not omega C_a
    real = HeckeAlgebra._edge

    def right(hecke, support, lx, omega=None):
        out = real(hecke, support, lx)
        return out if omega is None else {hecke.ext.mul(y, omega): p for y, p in out.items()}

    monkeypatch.setattr(HeckeAlgebra, "_edge", right)
    check = _failed(run_suite("A1_adj", names=["kl-bar-invariance"]), "A1_adj")
    assert check.detail == "length-zero relabeling fails"


def test_kl_bar_invariance_solver_fails_on_a_planted_unit(monkeypatch):
    # C_x + H_e for x of length 2 to 5, the lengths the solver takes, or
    # C_x + (v + v^{-1}) H_e at odd length, of the parity of len(x): bar
    # invariant, nonnegative, relabeled alike; A2's first draw has length 3
    def plant(eng):
        _rewrite(eng, eng.hecke._kl, range(2, 6), _at_identity(eng, _plus_unit))

    check = _rerun_planted(monkeypatch, "A2_adj", "kl-bar-invariance", plant)
    assert check.detail == "bar-invariance solver disagrees"
    ext = build_engine("A2_adj").ext
    first = ext.random_element(random.Random("0:kl-bar"), 3)
    assert check.counterexample["element"] == ext.format_element(first)


@pytest.mark.parametrize("plant, detail", [
    (lambda c: {k: -d for k, d in c.items()}, "negative Kazhdan-Lusztig coefficient"),
    (lambda c: _plus_unit(c), "bar-invariance solver disagrees"),
])
def test_kl_bar_invariance_top_up_fails_on_a_planted_entry(monkeypatch, plant, detail):
    # one draw, of length 0 on A1, so the solver elements all come from the
    # Cayley-ball top-up; their C_x, lengths 2 to 5, planted at the identity
    ext = build_engine("A1_adj").ext
    assert ext.length(ext.random_element(random.Random("0:kl-bar"), 3)) == 0
    check = _rerun_planted(
        monkeypatch, "A1_adj", "kl-bar-invariance",
        lambda eng: _rewrite(eng, eng.hecke._kl, range(2, 6), _at_identity(eng, plant)),
        samples=1)
    assert check.detail == detail
    assert 2 <= ext.length(ext.parse_element(check.counterexample["element"])) <= 5


def test_spherical_identities_fails_on_a_planted_spherical_entry(monkeypatch):
    # every lower coefficient of N_z times v^2, which keeps its parity: with
    # the m^{x,z} as computed, the sum at a label y != x with m^{x,y} != 0
    # becomes +-m^{x,y} (1 - v^2)
    def plant(eng):
        _rewrite(eng, eng.hecke._spherical, range(1, 99), lambda x, entry: {
            y: c if y == x else {k + 2: d for k, d in c.items()} for y, c in entry.items()})

    check = _rerun_planted(monkeypatch, "B2_adj", "spherical-identities", plant)
    assert check.detail == "inverse matrix identity fails"
    ce = check.counterexample
    argv = shlex.split(ce["command"])
    assert argv[1:3] == ["hecke", "inverse-m"]
    assert (argv[argv.index("--x") + 1], argv[argv.index("--y") + 1]) == (ce["x"], ce["y"])
