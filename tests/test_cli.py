import dataclasses
import json
import random

import pytest

from fbinv.cli import _HANDLERS, main
from fbinv.reference import reference_system
from fbinv.sampling import random_state_space
from fbinv.serialize import MAX_DEGREE, ar_to_json, dumps, state_space_to_json


@pytest.fixture
def reference_file(tmp_path):
    path = tmp_path / "reference.json"
    path.write_text(dumps(ar_to_json(reference_system())))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_nondegenerate_reference(capsys, reference_file):
    code, report = run(capsys, "nondegenerate", reference_file)
    assert code == 0
    assert report["status"] == "Degenerate"
    charts = {tuple(c["chart"]): c for c in report["charts"]}
    assert charts[(3, 4, 5)]["status"] == "HasComplexSolution"
    assert charts[(3, 4, 5)]["witness"] == [
        ["0", "0", "1", "0", "0"],
        ["0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "1"],
    ]


def test_stability_modes(capsys, reference_file):
    code, report = run(capsys, "stability", reference_file, "--mode", "exhaustive")
    assert code == 0
    assert report["status"] == "StableCertified"
    code, report = run(capsys, "stability", reference_file, "--mode", "generic", "--seed", "1")
    assert code == 3  # generic mode cannot certify
    assert report["status"] == "NotCertified"


def test_miso_invariant_monomials(capsys, tmp_path):
    doc = {
        "kind": "ar",
        "m": 1,
        "p": 1,
        "row_degrees": [2],
        "P": [[
            {"degree": 2, "terms": [["1", 2, 0]]},
            {"degree": 2, "terms": [["1", 0, 2]]},
        ]],
    }
    path = tmp_path / "monomials.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, "miso-invariant", str(path))
    assert code == 0
    assert report["canonical_basis"] == [["1", "0", "0"], ["0", "0", "1"]]
    assert report["pluecker"] == ["0", "1", "0"]


def test_parse_error_exit_code(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code = main(["stability", str(missing), "--mode", "exhaustive"])
    capsys.readouterr()
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"kind\": \"ar\"}")
    code = main(["nondegenerate", str(bad)])
    capsys.readouterr()
    assert code == 2


def test_budget_exhaustion_exit_code(capsys, tmp_path):
    # a two-output system whose chart ideals need actual S-pair work
    rng = random.Random(0)
    from fbinv.sampling import random_ar_system
    from fbinv.serialize import ar_to_json

    ar = random_ar_system(rng, 2, 2, 4, lo=-2, hi=2, row_degrees=[2, 2])
    path = tmp_path / "two_output.json"
    path.write_text(dumps(ar_to_json(ar)))
    code, report = run(capsys, "nondegenerate", str(path))
    assert code == 0 and report["status"] == "Nondegenerate"
    code, report = run(capsys, "nondegenerate", str(path), "--budget", "0")
    assert code == 3
    assert report["status"] == "NotCertified"


def test_pipeline_factorize_homogenize_kernel(capsys, tmp_path):
    rng = random.Random(7)
    ss = random_state_space(rng, 2, 1, 1, observable=True)
    ss_path = tmp_path / "ss.json"
    ss_path.write_text(dumps(state_space_to_json(ss)))
    mfd_path = tmp_path / "mfd.json"
    code, report = run(capsys, "factorize", str(ss_path), "-o", str(mfd_path))
    assert code == 0 and report["kind"] == "mfd"
    ar_path = tmp_path / "ar.json"
    code, report = run(capsys, "homogenize", str(mfd_path), "-o", str(ar_path))
    assert code == 0 and report["kind"] == "ar"
    code, report = run(capsys, "kernel", str(ar_path))
    assert code == 0 and report["kind"] == "syzygy"
    assert sum(report["row_degrees"]) == 2


def test_act_and_equivalent_round_trip(capsys, tmp_path):
    doc = {
        "kind": "ar",
        "m": 1,
        "p": 1,
        "row_degrees": [2],
        "P": [[
            {"degree": 2, "terms": [["1", 2, 0]]},
            {"degree": 2, "terms": [["1", 0, 2]]},
        ]],
    }
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps(doc))
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps({"kind": "transform", "T": [["1", "1"], ["0", "1"]]}))
    moved_path = tmp_path / "moved.json"
    code, report = run(capsys, "act", str(a_path), "--transform", str(t_path), "-o", str(moved_path))
    assert code == 0 and report["kind"] == "ar"
    code, report = run(capsys, "equivalent", str(a_path), str(moved_path))
    assert code == 0
    assert report["equivalent"] is True


def test_embed_command(capsys, tmp_path):
    doc = {
        "kind": "ar",
        "m": 1,
        "p": 1,
        "row_degrees": [1],
        "P": [[
            {"degree": 1, "terms": [["1", 1, 0]]},
            {"degree": 1, "terms": [["1", 0, 1]]},
        ]],
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, "embed", str(path), "--ell", "1")
    assert code == 0
    assert report["canonical_basis"] == [["1", "0", "0", "1"]]
    assert report["subspace_dim"] == 1


def test_embed_twist_above_the_degree_limit_is_a_parse_error(capsys, reference_file):
    # rho_embedding would build p(ell+1) rows of (m+p)(ell+1) entries
    code, report = run(capsys, "embed", reference_file, "--ell", str(MAX_DEGREE + 1))
    assert code == 2
    assert report["error"] == "ParseError"


def test_failed_output_write_is_a_parse_error_without_a_success_report(capsys, tmp_path):
    ss = tmp_path / "ss.json"
    ss.write_text(dumps(state_space_to_json(random_state_space(random.Random(0), 2, 1, 1))))
    code, report = run(capsys, "factorize", str(ss), "-o", str(tmp_path / "missing" / "out.json"))
    assert code == 2
    assert report["error"] == "ParseError"
    assert report["message"].startswith("cannot write ")


def test_pencil_commands(capsys, tmp_path):
    doc = {
        "kind": "pencil",
        "K": [["-1"], ["0"]],
        "L": [["0"], ["1"]],
        "M": [["0", "1"], ["-1", "0"]],
    }
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, "pencil-check", str(path))
    assert code == 0
    assert report["admissible"] is True and report["controllable"] is True
    code, report = run(capsys, "pencil-to-ar", str(path))
    assert code == 0
    assert report["kind"] == "ar" and report["variable_order"] == "u_first"


def test_verify_example51_command(capsys):
    code, report = run(capsys, "verify-example51")
    assert code == 0
    assert report["pass"] is True
    assert report["verdict"] == "degenerate but stable"
    assert report["checks"]["stability"] == {"pass": True, "status": "StableCertified"}


def test_verify_example51_fails_without_a_stability_certificate(capsys, monkeypatch):
    from fbinv import stability

    certify = stability.stability_check

    def uncertified(ar, **kwargs):
        verdict = certify(ar, **kwargs)
        if kwargs.get("mode") == stability.StabilityMode.EXHAUSTIVE:
            return dataclasses.replace(verdict, status=stability.StabilityStatus.NOT_CERTIFIED)
        return verdict

    monkeypatch.setattr(stability, "stability_check", uncertified)
    code, report = run(capsys, "verify-example51")
    assert code == 3
    assert report["pass"] is False and report["verdict"] == "unconfirmed"
    assert report["checks"]["stability"] == {"pass": False, "status": "NotCertified"}
    assert report["checks"]["generic_ranks"]["pass"] is True


def test_verify_example51_has_no_generic_only_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-example51", "--generic-only"])
    capsys.readouterr()
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--budget", "--max-degree"])
def test_negative_groebner_budget_is_a_parse_error(capsys, reference_file, flag):
    code, report = run(capsys, "nondegenerate", reference_file, flag, "-1")
    assert code == 2
    assert report["error"] == "ParseError"
    assert report["message"] == f"{flag} must be nonnegative, got -1"


def test_observable_part_command(capsys, tmp_path):
    s2 = {"degree": 2, "terms": [["1", 2, 0]]}
    st = {"degree": 2, "terms": [["1", 1, 1]]}
    doc = {"kind": "ar", "m": 1, "p": 1, "row_degrees": [2], "P": [[s2, st]]}
    path = tmp_path / "common_factor.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, "observable-part", str(path))
    assert code == 0
    assert report["row_degrees"] == [1]


def test_act_on_pencil(capsys, tmp_path):
    pencil = {
        "kind": "pencil",
        "K": [["-1"], ["0"]],
        "L": [["0"], ["1"]],
        "M": [["0", "1"], ["-1", "0"]],
    }
    p_path = tmp_path / "p.json"
    p_path.write_text(json.dumps(pencil))
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps({"kind": "transform", "T": [["2", "0"], ["0", "1"]]}))
    code, report = run(capsys, "act", str(p_path), "--transform", str(t_path))
    assert code == 0
    assert report["kind"] == "pencil"
    assert report["M"] == [["0", "1"], ["-1/2", "0"]]


def test_act_on_mfd_flags_a_singular_d_block(capsys, tmp_path):
    # (D N) = (s s) and T^{-1} = [[1, 0], [-1, 1]]: the new D block is 0
    m_path = tmp_path / "mfd.json"
    m_path.write_text(json.dumps({"kind": "mfd", "D": [[["0", "1"]]], "N": [[["0", "1"]]], "row_degrees": [1]}))
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps({"kind": "transform", "T": [["1", "0"], ["1", "1"]]}))
    code, report = run(capsys, "act", str(m_path), "--transform", str(t_path))
    assert code == 0
    assert report["kind"] == "mfd" and report["improper"] is True
    assert report["D"] == [[[]]] and report["N"] == [[["0", "1"]]]


_MISO_AR = {
    "kind": "ar",
    "m": 1,
    "p": 1,
    "row_degrees": [2],
    "P": [[{"degree": 2, "terms": [["1", 2, 0]]}, {"degree": 2, "terms": [["1", 0, 2]]}]],
}
_INPUTS = {
    "ar": ar_to_json(reference_system()),
    "miso": _MISO_AR,
    "ss": state_space_to_json(random_state_space(random.Random(7), 2, 1, 1, observable=True)),
    "mfd": {"kind": "mfd", "D": [[["0", "1"]]], "N": [[["1"]]], "row_degrees": [1]},
    "pencil": {"kind": "pencil", "K": [["-1"], ["0"]], "L": [["0"], ["1"]], "M": [["0", "1"], ["-1", "0"]]},
    "transform": {"kind": "transform", "T": [["1", "1"], ["0", "1"]]},
}
# one argv per command; a name from _INPUTS stands for a file holding it
_ARGV = {
    "factorize": ["ss"],
    "homogenize": ["mfd"],
    "kernel": ["ar"],
    "observable-part": ["ar"],
    "nondegenerate": ["ar"],
    "stability": ["ar"],
    "miso-invariant": ["miso"],
    "equivalent": ["miso", "miso"],
    "act": ["miso", "--transform", "transform"],
    "embed": ["miso", "--ell", "2"],
    "pencil-check": ["pencil"],
    "pencil-to-ar": ["pencil"],
    "verify-example51": [],
}


@pytest.mark.parametrize("command", sorted(_HANDLERS))
def test_output_file_is_the_printed_report(capsys, tmp_path, command):
    argv = [command]
    for arg in _ARGV[command]:
        if arg in _INPUTS:
            path = tmp_path / f"{arg}.json"
            path.write_text(dumps(_INPUTS[arg]))
            arg = str(path)
        argv.append(arg)
    out = tmp_path / "report.json"
    code = main([*argv, "-o", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert out.read_text(encoding="utf-8") == printed


def test_seed_env_default(capsys, reference_file, monkeypatch):
    monkeypatch.setenv("FBINV_SEED", "9")
    code, report = run(capsys, "stability", reference_file, "--mode", "generic")
    assert code == 3
    assert report["seed"] == 9


def test_non_integer_seed_env_is_a_parse_error(capsys, reference_file, monkeypatch):
    monkeypatch.setenv("FBINV_SEED", "abc")
    code, report = run(capsys, "stability", reference_file, "--mode", "generic")
    assert code == 2
    assert report["error"] == "ParseError"
    assert "FBINV_SEED" in report["message"]


def test_reports_are_byte_stable(capsys, reference_file):
    _, first = run(capsys, "stability", reference_file, "--mode", "generic", "--seed", "5")
    main(["stability", reference_file, "--mode", "generic", "--seed", "5"])
    second = capsys.readouterr().out
    assert json.dumps(first, sort_keys=True) == json.dumps(json.loads(second), sort_keys=True)


def test_text_format(capsys, reference_file):
    code = main(["nondegenerate", reference_file, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: Degenerate" in out


_REFERENCE_AR = ar_to_json(reference_system())


@pytest.mark.parametrize(
    "command, doc",
    [
        ("nondegenerate", {**_REFERENCE_AR, "P": [5]}),
        (
            "nondegenerate",
            {**_REFERENCE_AR, "P": [[{"degree": 1, "terms": 7}] + row[1:] for row in _REFERENCE_AR["P"]]},
        ),
        ("factorize", {"kind": "mfd", "D": [[["1"]]], "N": [[["1"]]], "row_degrees": ["x"]}),
        ("factorize", {"kind": "state_space", "A": [["1e99999999"]], "B": [["1"]], "C": [["1"]], "D": [["0"]]}),
        ("nondegenerate", {**_REFERENCE_AR, "m": 3.9}),
        ("nondegenerate", {**_REFERENCE_AR, "m": "3"}),
        ("nondegenerate", {**_REFERENCE_AR, "row_degrees": [2.7, 2]}),
        ("homogenize", {"kind": "mfd", "D": [[["1"]]], "N": [[["1"]]], "row_degrees": [-1]}),
        # raw JSON text: past Python's int-string limit, and nested past the recursion limit
        ("nondegenerate", json.dumps({**_REFERENCE_AR, "m": 0}).replace('"m": 0', '"m": ' + "1" * 5001)),
        ("kernel", "[" * 100000 + "]" * 100000),
    ],
    ids=[
        "ar-row-not-a-list",
        "terms-not-a-list",
        "mfd-degree-not-an-int",
        "exponent-rational",
        "ar-m-float",
        "ar-m-string",
        "ar-row-degree-float",
        "mfd-row-degree-negative",
        "int-over-digit-limit",
        "array-nested-too-deep",
    ],
)
def test_malformed_input_is_a_parse_error(capsys, tmp_path, command, doc):
    path = tmp_path / "malformed.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, report = run(capsys, command, str(path))
    assert code == 2
    assert report["error"] == "ParseError"


_OVER = MAX_DEGREE + 1


@pytest.mark.parametrize(
    "command, doc",
    [
        (
            "nondegenerate",
            {"kind": "ar", "m": 1, "p": 1, "row_degrees": [1],
             "P": [[{"degree": _OVER, "terms": [["1", _OVER, 0]]}, {"degree": 1, "terms": [["1", 0, 1]]}]]},
        ),
        (
            "nondegenerate",
            {"kind": "ar", "m": 1, "p": 1, "row_degrees": [_OVER],
             "P": [[{"degree": 0, "terms": []}, {"degree": 0, "terms": []}]]},
        ),
        ("homogenize", {"kind": "mfd", "D": [[["1"]]], "N": [[["1"]]], "row_degrees": [_OVER]}),
    ],
    ids=["polynomial-degree", "ar-row-degree", "mfd-row-degree"],
)
def test_declared_degree_above_the_bound_is_a_parse_error(capsys, tmp_path, command, doc):
    path = tmp_path / "too_high.json"
    path.write_text(json.dumps(doc))
    code, report = run(capsys, command, str(path))
    assert code == 2
    assert report["error"] == "ParseError"
    assert str(MAX_DEGREE) in report["message"]
