import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest

from mpcsr import demo
from mpcsr.cli import main, render_json
from mpcsr.semiring import MaxPlusMatrix
from mpcsr.trellis import Word

from oracles import dense_power, s_power_csr_terms, s_power_rank_factors, structure


@pytest.fixture()
def demo_file(tmp_path):
    payload = {"generators": [g.to_json() for g in demo.generators()]}
    path = tmp_path / "demo.json"
    path.write_text(render_json(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_render_json_number_formats():
    out = render_json({"a": 3.0, "b": -4.5, "c": 26.222222222222221, "d": None, "e": True})
    assert '"a": 3' in out
    assert '"b": -4.5' in out
    assert '"c": 26.222222222222221' in out
    assert '"d": null' in out
    assert '"e": true' in out


def test_analyze_output(capsys, demo_file):
    code, out, _ = run(capsys, "analyze", demo_file)
    assert code == 0
    data = json.loads(out)
    assert data["size"] == 8
    assert data["assumptions"]["profile"] == "P0"
    assert data["critical"]["critical_nodes"] == [0, 1, 2, 3]
    assert data["lambda_star"] == -4.5


def test_analyze_output_is_byte_stable(capsys, demo_file):
    _, first, _ = run(capsys, "analyze", demo_file)
    _, second, _ = run(capsys, "analyze", demo_file)
    assert first == second


def test_analyze_rejects_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "error" in err


def test_analyze_rejects_wrong_schema(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"matrices": []}))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2


def test_analyze_rejects_a_file_that_is_not_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read ensemble file {bad}: 'utf-8' codec can't decode")


def test_analyze_rejects_json_nested_too_deeply(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read ensemble file {bad}: JSON nested too deeply\n"


def test_analyze_rejects_an_integer_past_the_conversion_limit(capsys, tmp_path):
    bad = tmp_path / "huge.json"
    bad.write_text('{"generators": [{"rows": 1, "cols": 1, "entries": [[%s]]}]}' % ("9" * 5000))
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read ensemble file {bad}: Exceeds the limit")


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("size", ['"2"', "2.5", "true", "null"])
def test_analyze_rejects_a_shape_that_is_not_an_integer(capsys, tmp_path, field, size):
    shape = {"rows": "2", "cols": "2", field: size}
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"generators": [{"rows": %s, "cols": %s, "entries": [[0, null], [null, 0]]}]}' % (shape["rows"], shape["cols"])
    )
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: matrix {field} must be an integer, got {json.loads(size)!r}\n"


def test_analyze_accepts_an_integer_valued_float_shape(capsys, tmp_path):
    path = tmp_path / "ok.json"
    path.write_text('{"generators": [{"rows": 2.0, "cols": 2, "entries": [[0, null], [null, 0]]}]}')
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["size"] == 2


@pytest.mark.parametrize(
    "entry",
    ["-Infinity", "NaN", "1e400", "1" + "0" * 400, '"1"', "true"],
    ids=["-Infinity", "NaN", "1e400", "integer-10**400", "string", "true"],
)
def test_analyze_rejects_non_finite_and_non_numeric_entries(capsys, tmp_path, entry):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": [{"rows": 1, "cols": 2, "entries": [[0, %s]]}]}' % entry)
    code, out, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert "matrix entries must be" in err


@pytest.mark.parametrize(
    "generators",
    [
        # Visualising puts -1e308 - 1e308 on the edge (1, 2).
        [[[0, 1e308, None], [None, None, -1e308], [-1e308, None, None]]],
        # Normalising by the cycle mean 1e308 puts -2e308 on the edge (0, 1).
        [[[1e308, -1e308], [1e308, None]]],
    ],
    ids=["visualised-entry", "cycle-mean"],
)
def test_analyze_rejects_weights_that_overflow(capsys, tmp_path, generators):
    # The values are exact, but one is beyond the float range of the output.
    code, out, err = run(capsys, "analyze", _write_generators(tmp_path, generators))
    assert code == 2
    assert out == ""
    assert err.startswith("error: the weights overflow floating point: ") and err.count("\n") == 1


def test_analyze_takes_a_cycle_mean_whose_float_sums_overflow(capsys, tmp_path):
    # Every cycle sums to at least 2e308, beyond the float range, but the
    # cycle means and the normalised entries are exact and small.
    code, out, _ = run(capsys, "analyze", _write_generators(tmp_path, [[[1e308, 1e308], [1e308, 1e308]]] * 2))
    assert code == 0
    data = json.loads(out)
    assert data["a_sup"]["entries"] == [[0, 0], [0, 0]]
    assert data["assumptions"]["diagnostics"] == []


def test_analyze_float_generator_with_rounded_cycle_mean(capsys, tmp_path):
    # Normalising by Karp's cycle mean leaves float dirt (about 2.5e-9 here);
    # the critical star must not take it for a positive cycle mean.
    entries = [[None, 70227174.8, None], [-33280550.2, -23390249.5, 12849541.4], [95876118.2, None, None]]
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"generators": [{"rows": 3, "cols": 3, "entries": entries}]}))
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["critical"]["critical_nodes"] == [0, 1, 2]


def _write_generators(tmp_path, generators):
    path = tmp_path / "ensemble.json"
    n = len(generators[0])
    path.write_text(json.dumps({"generators": [{"rows": n, "cols": n, "entries": g} for g in generators]}))
    return str(path)


def test_analyze_float_input_where_node_and_edge_tolerances_disagree(capsys, tmp_path):
    # In the second visualised generator the edge test puts node 1 on the
    # critical cycle 0 -> 3 -> 1 -> 2 -> 0, but a separate diagonal test read
    # -1.9e-9 < -TOL there and dropped it, which left a critical component
    # without a cycle: cyclic_classes raised "cyclicity is undefined" (exit 1).
    path = _write_generators(tmp_path, [
        [[None, -32505877.6, 2532123.4, 3867907.8], [None, None, -30775461.8, None],
         [-19976419.7, None, -27432619.3, -37383867.1], [-38302243.2, -11324861.1, 36835393.9, -18648350.7]],
        [[-15618388.3, 6120570.9, 18648520.5, -229549.3], [18582273.0, -17162268.1, 27403378.1, None],
         [13487910.2, -35457121.9, 12071317.2, -35609112.0], [-1485999.7, 36956731.6, None, None]],
    ])
    code, out, _ = run(capsys, "analyze", path)
    assert code != 1
    critical = json.loads(out)["critical"]
    assert critical["critical_nodes"] == sorted(v for c in critical["components"] for v in c["nodes"])


def test_bounds_rejects_an_ambient_bound_that_overflows(capsys, tmp_path):
    # lambda_star = -1 and the visualised edge (0, 1) weighs -2e308, so the
    # avoidance cell at (1, 1) is about 2e308, beyond the float range.
    path = _write_generators(tmp_path, [[[0, -1e308], [-1e308, -1]]])
    code, out, err = run(capsys, "bounds", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the weights overflow floating point: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, word", [("product", "1,1"), ("csr-check", "1,1"), ("csr-check", "1")])
def test_word_commands_reject_products_that_overflow(capsys, tmp_path, command, word):
    # Two -1e308 entries sum to -inf in the word product or in its CSR form.
    path = _write_generators(tmp_path, [[[0, -1e308, None], [None, None, -1e308], [-1e308, None, None]]])
    code, out, err = run(capsys, command, path, "--word", word)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "overflow" in err and err.count("\n") == 1


def test_bounds_output(capsys, demo_file):
    code, out, _ = run(capsys, "bounds", demo_file)
    assert code == 0
    data = json.loads(out)
    assert data["profile"] == "P0"
    assert data["weak_bound"]["k"] == 20
    assert data["weak_bound"]["first_k"] == 16
    assert data["ambient"]["k"] == 27
    assert abs(data["ambient"]["bound"] - 26.222222222222221) < 1e-12
    assert data["ambient"]["branch_connect"]["entries"][6][7] == pytest.approx(26.2222222, abs=1e-6)


def test_bounds_rejects_wrong_profile(capsys, tmp_path):
    from mpcsr.counterexamples import build_family

    fam = build_family("P2_six")
    path = tmp_path / "p2.json"
    path.write_text(render_json({"generators": [g.to_json() for g in fam.generators]}))
    code, _, err = run(capsys, "bounds", str(path))
    assert code == 2
    assert "profile" in err


def test_bounds_rejects_a_divergent_supremum(capsys, tmp_path):
    # Each generator has cycle mean 0, but their supremum has cycle mean 5.
    gens = [[[None, -5], [5, None]], [[None, 5], [-5, None]]]
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps({"generators": [{"rows": 2, "cols": 2, "entries": g} for g in gens]}))
    code, out, err = run(capsys, "bounds", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: maximum cycle mean 5 is positive; the star series diverges\n"


@pytest.mark.parametrize("k_max", ["0", "-1", "-200"])
def test_bounds_rejects_nonpositive_k_max(capsys, demo_file, k_max):
    code, out, err = run(capsys, "bounds", demo_file, "--k-max", k_max)
    assert code == 2
    assert out == ""
    assert err == f"error: --k-max must be at least 1, got {k_max}\n"


def test_product_command(capsys, demo_file):
    word = ",".join(str(l) for l in demo.WORD.letters)
    code, out, _ = run(capsys, "product", demo_file, "--word", word)
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 24
    assert data["product"]["entries"][6][0] == -11
    assert data["w_star"][6] == -11
    assert data["v_star"][0] == 0


def test_product_rejects_bad_word(capsys, demo_file):
    code, _, err = run(capsys, "product", demo_file, "--word", "1,9")
    assert code == 2
    code, _, err = run(capsys, "product", demo_file, "--word", "1,x")
    assert code == 2


def test_csr_check_success_and_factors(capsys, demo_file, tmp_path):
    word = ",".join(str(l) for l in demo.WORD.letters)
    factors_path = tmp_path / "factors.json"
    code, out, _ = run(
        capsys, "csr-check", demo_file, "--word", word, "--emit-factors", str(factors_path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is True
    assert data["witness"] is None
    assert data["rank_bound"] == 2
    factors = json.loads(factors_path.read_text())
    assert factors["representatives"] == [[0, 1]]
    assert factors["c_prime"]["entries"][5][0] == -31
    assert factors["r_prime"]["entries"][1][4] == -28
    # The emitted middle factor degenerates to diag(0) at this length.
    s_power = factors["s_power"]["entries"]
    assert all(s_power[i][i] == 0 for i in range(8))


def test_csr_check_factors_at_odd_length(capsys, demo_file, tmp_path):
    # k = 25 and gamma = 2: the emitted middle factor is S itself.
    word = Word(demo.WORD.letters + (1,))
    factors_path = tmp_path / "factors.json"
    code, out, _ = run(
        capsys, "csr-check", demo_file, "--word", ",".join(map(str, word.letters)),
        "--emit-factors", str(factors_path),
    )
    assert code == 0
    assert json.loads(out)["equal"] is True
    factors = json.loads(factors_path.read_text())
    ens = demo.ensemble()
    s = structure(8, sorted(ens.critical.critical_edges))
    assert MaxPlusMatrix.from_json(factors["s_power"]) == dense_power(s, 1)
    assert MaxPlusMatrix.from_json(factors["s_power"]) != dense_power(s, 0)
    c_prime, r_prime, _ = s_power_rank_factors(s_power_csr_terms(ens, word))
    assert MaxPlusMatrix.from_json(factors["c_prime"]) == c_prime
    assert MaxPlusMatrix.from_json(factors["r_prime"]) == r_prime


def test_csr_check_failure_exits_one(capsys, tmp_path):
    from mpcsr.counterexamples import build_family

    fam = build_family("P3_four")
    path = tmp_path / "p3.json"
    path.write_text(render_json({"generators": [g.to_json() for g in fam.generators]}))
    code, out, _ = run(capsys, "csr-check", str(path), "--word", ",".join(["1"] * 10 + ["2"]))
    assert code == 1
    data = json.loads(out)
    assert data["equal"] is False
    assert data["witness"] == {"row": 0, "col": 2, "product_value": -101, "csr_value": -2}


def test_counterexample_command(capsys):
    code, out, _ = run(capsys, "counterexample", "--family", "P2_six", "--t", "10")
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert len(data["classes"]) == 4
    first = data["classes"][0]
    assert first["equal"] is False
    assert first["display_ok"] is True


def test_counterexample_command_reuses_the_family_check(capsys, monkeypatch):
    # The command reports verify_family's own products and CSR forms: one
    # ensemble build and one CSR check per class, wherever they are bound.
    calls = {"build_ensemble": 0, "is_csr": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "mpcsr" and hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    code, out, _ = run(capsys, "counterexample", "--family", "P2_six", "--t", "10")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 4
    assert calls == {"build_ensemble": 1, "is_csr": 4}


def test_counterexample_two_cycle_family_at_first_parameter(capsys):
    code, out, _ = run(capsys, "counterexample", "--family", "P1_six", "--t", "1")
    assert code == 0
    assert json.loads(out)["all_ok"] is True


@pytest.mark.parametrize(
    "family_id, t, t_min",
    [("P2_six", "0", 2), ("P2_six", "1", 2), ("P1_six", "-5", 1), ("P1_three", "-1", 0), ("P3_four", "1", 2)],
)
def test_counterexample_rejects_t_below_every_class(capsys, family_id, t, t_min):
    # No class would be checked, so an empty report must not pass as verified.
    code, out, err = run(capsys, "counterexample", "--family", family_id, "--t", t)
    assert code == 2
    assert out == ""
    assert err == f"error: family {family_id} needs --t >= {t_min}, got {t}\n"


@pytest.mark.parametrize(
    "family_id, t_max",
    # The longest class word, (1)^(modulus*t + offset) 2, has at most 10**6 letters.
    [("P1_six", 499_999), ("P1_three", 333_331), ("P2_six", 249_999), ("P3_four", 999_999)],
)
def test_counterexample_rejects_t_beyond_the_word_cap(capsys, family_id, t_max):
    for t in (t_max + 1, 100_000_000):
        code, out, err = run(capsys, "counterexample", "--family", family_id, "--t", str(t))
        assert code == 2
        assert out == ""
        assert err == (
            f"error: family {family_id} builds words of at most 1000000 letters, "
            f"so --t must be at most {t_max}, got {t}\n"
        )


def test_counterexample_runs_at_the_smallest_admissible_t(capsys):
    for family_id, t_min in (("P1_six", 1), ("P1_three", 0), ("P2_six", 2), ("P3_four", 2)):
        code, out, _ = run(capsys, "counterexample", "--family", family_id, "--t", str(t_min))
        assert code == 0
        assert json.loads(out)["classes"]


def test_paper_repro_manifest(capsys):
    code, out, _ = run(capsys, "paper-repro")
    data = json.loads(out)
    names = {item["name"]: item for item in data["items"]}
    assert names["word_product"]["ok"] is True
    assert names["csr_equality"]["ok"] is True
    assert names["rank_factors"]["ok"] is True
    for fid in ("P1_six", "P1_three", "P2_six", "P3_four"):
        assert names[f"family_{fid}"]["ok"] is True
    # The recorded threshold scalar is internally inconsistent with the
    # recorded tables; the manifest flags it and the exit code reflects it.
    scalar = names["threshold_scalar"]
    assert scalar["ok"] is False
    assert scalar["status"] == "known_discrepancy"
    assert scalar["detail"]["recorded_bound"] == 23.8
    assert scalar["detail"]["computed_k"] == 27
    assert code == 1


def test_output_file_option(tmp_path, capsys, demo_file):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", demo_file, "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["size"] == 8


def test_output_to_a_missing_directory_exits_two(tmp_path, capsys, demo_file):
    target = tmp_path / "missing" / "x.json"
    word = ",".join(str(l) for l in demo.WORD.letters)
    code, out, err = run(capsys, "product", demo_file, "--word", word, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.exists()


def test_factors_to_a_missing_directory_exits_two(tmp_path, capsys, demo_file):
    target = tmp_path / "missing" / "x.json"
    word = ",".join(str(l) for l in demo.WORD.letters)
    code, out, err = run(
        capsys, "csr-check", demo_file, "--word", word, "--emit-factors", str(target)
    )
    assert code == 2
    assert json.loads(out)["equal"] is True
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.exists()


def test_cli_import_leaves_the_dataset_unloaded():
    # Only paper-repro needs the bundled dataset, so importing the CLI must
    # not load it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, mpcsr.cli; print('mpcsr.demo' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


# -- exact decimals ----------------------------------------------------------------


def _demo_variant_file(tmp_path, name, transform):
    generators = [
        {"rows": g.rows, "cols": g.cols, "entries": [[None if v is None else transform(v) for v in row] for row in g.data]}
        for g in demo.generators()
    ]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"generators": generators}))
    return str(path)


DEMO_WORD = ",".join(map(str, demo.WORD.letters))


@pytest.mark.parametrize("scale", ["0.1", "0.3", "1e-7"])
def test_decimal_scaled_demo_keeps_its_csr_verdict_and_lengths(capsys, tmp_path, scale):
    # Every entry is written as an exact decimal, e.g. -4.2 for -14 x 0.3.
    # Float arithmetic reported false counterexamples on these files.
    path = _demo_variant_file(tmp_path, scale, lambda v: float(Decimal(v) * Decimal(scale)))
    code, out, _ = run(capsys, "csr-check", path, "--word", DEMO_WORD)
    assert code == 0
    assert json.loads(out)["equal"] is True
    code, out, _ = run(capsys, "bounds", path)
    assert code == 0
    data = json.loads(out)
    assert (data["ambient"]["k"], data["weak_bound"]["k"]) == (27, 20)


@pytest.mark.parametrize(
    "argv", [["analyze"], ["bounds"], ["product", "--word", DEMO_WORD], ["csr-check", "--word", DEMO_WORD]]
)
def test_shifted_demo_prints_the_demo_bytes(capsys, tmp_path, demo_file, argv):
    # Adding 0.1 to every entry shifts each generator's cycle mean by 0.1,
    # which the normalisation takes off exactly.
    path = _demo_variant_file(tmp_path, "shifted", lambda v: v + 0.1)
    assert run(capsys, argv[0], path, *argv[1:]) == run(capsys, argv[0], demo_file, *argv[1:])


def test_bounds_with_a_huge_k_max_stops_at_the_period(capsys, demo_file):
    start = time.perf_counter()
    code, out, _ = run(capsys, "bounds", demo_file, "--k-max", "100000000")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 1.0
    _, want, _ = run(capsys, "bounds", demo_file)
    assert out == want.replace('"certified_up_to": 200', '"certified_up_to": 100000000')
