"""Self-test of the checkers: each must accept the library's real answer
and reject a deliberately corrupted copy of it.

Run alone with ``python3 bench/run.py --self-test``; every benchmark run
also runs it first and reports ``correct: false`` if any checker fails it.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction as F

import qmobius as Q

import oracles as O
import workloads as W


def _perturb_point(points, k):
    points = list(points)
    points[k] = points[k] + F(1, 2**40)
    return tuple(points)


def _flip(verdict):
    return Q.Verdict(O.DUAL[verdict.value])


def cases():
    """(what is corrupted, op, corruption of the op's result)."""
    hyper = (F(2), F(0), F(1), F(1, 2))
    fused = O.fused_map("C", F(2), F(1), 1)
    f_hyper, f_fused = Q.MobiusMap(*hyper), Q.case_C(F(2), F(1))
    fam = (F(1, 2), 1, F(2), F(3))
    f_fam = Q.from_parameter(Q.FamilyParameter(*fam))
    places = [Q.Place(p) for p in W.CLASSIFY_PLACES]
    two, real = Q.Place(2), Q.Place(None)

    def drop_prime(result):
        reports, at, image = result
        r = reports[0]
        return (dataclasses.replace(r, exceptional=r.exceptional[1:]),) + reports[1:], at, image

    def flip_real(result):
        reports, at, image = result
        r = reports[0]
        real_report = dataclasses.replace(r.real_report, verdict=_flip(r.real_report.verdict))
        return (dataclasses.replace(r, real_report=real_report),) + reports[1:], at, image

    def flip_place(result):
        reports, at, image = result
        k = next(k for k, (_, _, rep) in enumerate(at) if rep.verdict is not Q.Verdict.INDIFFERENT)
        xi, place, rep = at[k]
        return reports, at[:k] + [(xi, place, dataclasses.replace(rep, verdict=_flip(rep.verdict)))] + at[k + 1:], image

    def drop_image_prime(result):
        return result[0], result[1], result[2][1:]

    def change_field(result):
        code, out, err = result[:3]
        if out.lstrip().startswith("{"):
            payload = json.loads(out)
            payload["map"] = "2,0,1,1/3"
            return code, json.dumps(payload, indent=2) + "\n", err
        return code, out.replace("attractor", "repeller", 1), err

    def perturb_trace(tr):
        values = list(tr.values)
        values[5] = dataclasses.replace(values[5], exponent=values[5].exponent - 1)
        return dataclasses.replace(tr, values=tuple(values))

    def perturb_real_trace(tr):
        values = list(tr.values)
        values[5] = dataclasses.replace(values[5], value=values[5].value * 2)
        return dataclasses.replace(tr, values=tuple(values))

    def flip_basin(sample):
        t = sample.tested[0]
        return dataclasses.replace(sample, tested=(dataclasses.replace(t, converged=not t.converged),)
                                   + sample.tested[1:])

    def flip_sphere(result):
        ok, witness = result
        return (not ok, witness)

    classify_args = (f_fam, O.family_map(*fam), places, F(3, 7))
    run_inproc = W.inprocess_cli
    return [
        ("hyperbolic orbit: one entry perturbed", W.run_orbit_op(f_hyper, hyper, F(1), 40),
         lambda rec: dataclasses.replace(rec, points=_perturb_point(rec.points, 17))),
        ("fused orbit: one entry perturbed", W.run_orbit_op(f_fused, fused, F(2), 40),
         lambda rec: dataclasses.replace(rec, points=_perturb_point(rec.points, 31))),
        ("power jump: x_n perturbed", W.power_op(f_hyper, hyper, F(1), 40), lambda x: x + 1),
        ("2-adic trace: one valuation off by one", W.trace_op(f_hyper, hyper, F(1), F(0), two, 30), perturb_trace),
        ("real trace: one distance doubled", W.trace_op(f_hyper, hyper, F(1), F(3, 2), real, 30),
         perturb_real_trace),
        ("adelic report: one exceptional prime dropped", W.classify_op("x", *classify_args), drop_prime),
        ("adelic report: real verdict flipped", W.classify_op("x", *classify_args), flip_real),
        ("classify_at: one verdict flipped", W.classify_op("x", *classify_args), flip_place),
        ("check_adelic_image: one prime dropped", W.classify_op("x", *classify_args), drop_image_prime),
        ("basin: converged flag flipped", W.basin_op(f_hyper, hyper, F(0), two, [F(1), F(3)], 40), flip_basin),
        ("sphere: invariant verdict flipped", W.sphere_op(f_fused, fused, F(1), 3, -1, 30), flip_sphere),
        ("sphere: departure verdict flipped", W.sphere_op(f_fused, fused, F(1), 3, 1, 30), flip_sphere),
        ("period: None replaced by 1", W.period_op(f_fused, fused, 50), lambda k: 1),
        ("cli text: one field changed", W.cli_op(W.CLI_COMMANDS[0], False, run_inproc), change_field),
        ("cli json: one field changed", W.cli_op(W.CLI_COMMANDS[0], True, run_inproc), change_field),
    ]


def run() -> list[tuple[str, bool, bool]]:
    """(case, real answer accepted, corrupted answer rejected) per case."""
    out = []
    for what, op, corrupt in cases():
        result = op.run()
        out.append((what, _passes(op, result), not _passes(op, corrupt(result))))
    return out


def _passes(op, result) -> bool:
    try:
        op.check(result)
    except O.CheckError:
        return False
    return True
