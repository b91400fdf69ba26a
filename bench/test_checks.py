"""The benchmark's checks must reject wrong output.

    python3 -m pytest bench/test_checks.py -q
"""

import dataclasses
import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from fbinv.linalg import RatMatrix  # noqa: E402
from fbinv.reference import reference_degeneracy_witness, reference_system  # noqa: E402
from fbinv.sampling import random_ar_system, random_state_space  # noqa: E402
from fbinv.realization import left_coprime_mfd  # noqa: E402


def _decide(inputs):
    work = workloads.DecisionWorkload(inputs, deadline_s=60.0)
    outputs = {i: op.run() for i, op in enumerate(work.ops)}
    return work, outputs


def _refuted_system():
    # degrees (0, 3) at (p, m, n) = (2, 2, 3): degenerate, and the exhaustive
    # check refutes stability with a witness subspace
    return random_ar_system(random.Random(3), 2, 2, 3, row_degrees=(0, 3))


def test_reference_outputs_pass():
    work, outputs = _decide([("reference", reference_system())])
    assert work.check(outputs) == {0: [], 1: []}


def test_corrupted_degeneracy_witness_is_rejected():
    ar = reference_system()
    P = checks.matrix_of(ar.P)
    K = [list(row) for row in reference_degeneracy_witness().entries]
    assert checks.check_degeneracy_witness(P, K, ar.m, ar.n) == []
    K[0][0] += 1
    assert checks.check_degeneracy_witness(P, K, ar.m, ar.n)
    K[0][0] -= 1
    K[2] = list(K[1])
    assert checks.check_degeneracy_witness(P, K, ar.m, ar.n)


def test_corrupted_witness_in_a_verdict_is_rejected():
    work, outputs = _decide([("reference", reference_system())])
    verdict = outputs[0]
    bad = RatMatrix.from_rows([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0]])
    outputs[0] = dataclasses.replace(verdict, witness=bad)
    assert work.check(outputs)[0]


def test_corrupted_stability_witness_is_rejected():
    ar = _refuted_system()
    work, outputs = _decide([("refuted", ar)])
    verdict = outputs[1]
    assert verdict.status.value == "CriterionFails" and verdict.witness is not None
    assert work.check(outputs)[1] == []
    H = [list(row) for row in verdict.witness.entries]
    H[-1] = [Fraction(k + 1) for k in range(len(H[-1]))]
    outputs[1] = dataclasses.replace(verdict, witness=RatMatrix.from_rows(H))
    assert work.check(outputs)[1]


def test_flipped_verdicts_are_rejected():
    ar = reference_system()  # n = 4 < mp = 6
    assert checks.check_dimension_count("Nondegenerate", ar.m, ar.p, ar.n)
    assert checks.check_dimension_count("Degenerate", ar.m, ar.p, ar.n) == []
    assert checks.check_stable_if_nondegenerate("Nondegenerate", "CriterionFails")
    work, outputs = _decide([("refuted", _refuted_system())])
    flipped = dataclasses.replace(outputs[0], status=type(outputs[0].status)("Nondegenerate"))
    outputs[0] = flipped
    problems = work.check(outputs)
    assert problems[0] and problems[1]


def test_flipped_single_output_verdict_is_rejected():
    P = [[(1, [Fraction(1), Fraction(0)]), (1, [Fraction(0), Fraction(1)])]]
    assert checks.check_miso(P, "StableCertified") == []
    assert checks.check_miso(P, "CriterionFails")
    dependent = [[(1, [Fraction(1), Fraction(2)]), (1, [Fraction(2), Fraction(4)])]]
    assert checks.check_miso(dependent, "SemistableCertified")


def test_changed_report_byte_is_rejected():
    work, outputs = _decide([("reference", reference_system())])
    data = work.report(outputs[0])
    assert checks.check_identical(data, work.report(outputs[0])) == []
    changed = bytearray(data)
    changed[len(changed) // 2] ^= 1
    assert checks.check_identical(data, bytes(changed))
    assert checks.check_identical(data, data + b" ")


def test_wrong_kernel_and_factorization_are_rejected():
    from fbinv.arsys import compute_Q

    ar = reference_system()
    P = checks.matrix_of(ar.P)
    syz = compute_Q(ar)
    Q = checks.matrix_of(syz.Q)
    assert checks.check_kernel(P, Q, syz.row_degrees, ar.n, observable=True) == []
    Q[0][0] = (Q[0][0][0], [c + 1 for c in Q[0][0][1]])
    assert checks.check_kernel(P, Q, syz.row_degrees, ar.n, observable=True)

    ss = random_state_space(random.Random(5), 3, 1, 2, observable=True)
    mfd = left_coprime_mfd(ss)
    A, B, C, D = ([list(r) for r in M.entries] for M in (ss.A, ss.B, ss.C, ss.D))
    Dmat = [[list(f.coeffs) for f in row] for row in mfd.Dmat]
    Nmat = [[list(f.coeffs) for f in row] for row in mfd.Nmat]
    assert checks.check_factorization(A, B, C, D, Dmat, Nmat, mfd.row_degrees) == []
    Nmat[0][0] = Nmat[0][0] + [Fraction(1)]
    assert checks.check_factorization(A, B, C, D, Dmat, Nmat, mfd.row_degrees)


def test_modes_disagreement_is_rejected():
    exact = [{"h": 1, "weak_bound": 1, "strict_bound": 1, "achieved": 1, "strict_ok": True, "weak_ok": True}]
    sampled = [dict(exact[0], achieved=0)]
    assert checks.check_modes_agree("StableCertified", exact, "NotCertified", exact) == []
    assert checks.check_modes_agree("StableCertified", exact, "NotCertified", sampled)
    assert checks.check_modes_agree("StableCertified", exact, "CriterionFails", exact)
