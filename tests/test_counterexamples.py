import pytest

from mpcsr import counterexamples
from mpcsr.counterexamples import (
    FAMILY_IDS,
    build_family,
    transient_nonexistence_scan,
    verify_family,
)
from mpcsr.csr import is_csr

E = None


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown family"):
        build_family("P9_two")


def test_generator_spot_checks():
    p1 = build_family("P1_six")
    assert p1.generators[0].data[0][2] == -100.0
    assert p1.generators[1].data[1][4] == -1.0
    assert p1.generators[1].data[3][0] == -1.0

    p2 = build_family("P2_six")
    assert p2.generators[1].data[2][4] == -1.0
    assert p2.generators[1].data[5][3] == -1.0

    p3 = build_family("P3_four")
    assert p3.generators[1].data[0][1] == -1.0
    assert p3.generators[1].data[1][2] == -1.0
    assert p3.generators[1].data[3][3] is None


def test_generators_differ_only_on_bypass_edges():
    for family_id in FAMILY_IDS:
        fam = build_family(family_id)
        a1, a2 = fam.generators
        assert a1.support() == a2.support()
        diffs = [
            (i, j)
            for i in range(a1.rows)
            for j in range(a1.cols)
            if a1.data[i][j] != a2.data[i][j]
        ]
        assert diffs, "the second generator must actually differ"
        for i, j in diffs:
            assert (i, j) not in fam.ensemble().critical.critical_edges


@pytest.mark.parametrize("family_id", FAMILY_IDS)
def test_display_parameter_verifies(family_id):
    fam = build_family(family_id)
    report = verify_family(fam, [fam.display_t])
    assert report.all_ok
    for check in report.checks:
        assert check.failed_csr
        assert check.witnesses_ok


@pytest.mark.parametrize("family_id", FAMILY_IDS)
def test_a_few_more_parameters_verify(family_id):
    fam = build_family(family_id)
    assert verify_family(fam, [2, 3, 7]).all_ok


def test_word_class_length_inversion():
    fam = build_family("P2_six")
    for cls in fam.word_classes:
        for t in (2, 5, 11):
            assert cls.t_for_length(cls.length(t)) == t
        assert cls.t_for_length(cls.length(2) + 1) is None


@pytest.mark.parametrize(
    "family_id,k_max",
    [("P1_six", 45), ("P1_three", 30), ("P2_six", 40), ("P3_four", 25)],
)
def test_scan_covers_all_lengths(family_id, k_max):
    fam = build_family(family_id)
    report = transient_nonexistence_scan(fam, k_max)
    assert report.all_covered
    lengths = [k for k, _, _, ok in report.covered if ok]
    assert lengths == list(range(fam.min_guaranteed_length, k_max + 1))


def test_odd_and_even_classes_cover_two_cycle_family():
    fam = build_family("P1_six")
    ens = fam.ensemble()
    # Witness values are length-independent inside each class.
    for t in (2, 6, 13):
        odd = is_csr(ens, fam.word_classes[0].word(t))
        assert (odd.product.data[5][4], odd.csr.data[5][4]) == (-401.0, -302.0)
        even = is_csr(ens, fam.word_classes[1].word(t))
        assert (even.product.data[1][4], even.csr.data[1][4]) == (-301.0, -202.0)
        assert (even.product.data[3][4], even.csr.data[3][4]) == (-401.0, -302.0)


def test_two_cycle_family_verifies_at_its_first_parameter():
    # At t = 1 (k = 4) no length-4 walk joins 3 to 4, so that witness starts
    # at t = 2; the word is still non-CSR and witness (1, 4) holds.
    fam = build_family("P1_six")
    report = verify_family(fam, [1])
    assert report.all_ok
    (check,) = report.checks
    assert (check.label, check.k, check.failed_csr) == ("even_length", 4, True)
    assert check.witness_details == ((1, 4, -301.0, -202.0, -301.0, -202.0),)
    assert is_csr(fam.ensemble(), fam.word_classes[1].word(1)).product.data[3][4] is None


def test_family_ensemble_is_built_once(monkeypatch):
    fam = build_family("P2_six")
    calls = [0]
    original = counterexamples.build_ensemble

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(counterexamples, "build_ensemble", counting)
    first = verify_family(fam, [3])
    second = verify_family(fam, [3])
    assert calls[0] == 1
    assert first == second
    assert fam.ensemble() is fam.ensemble()
    assert calls[0] == 1


def test_family_equality_and_repr_ignore_the_memo():
    fresh, used = build_family("P3_four"), build_family("P3_four")
    used.ensemble()
    assert "_ensemble" in vars(used) and "_ensemble" not in vars(fresh)
    assert used == fresh
    assert repr(used) == repr(fresh)
    assert hash(used) == hash(fresh)
