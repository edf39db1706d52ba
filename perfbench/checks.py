"""Output checks against the values recorded in ``expected/``.

Tolerances are relative and sized so a solver that reaches the same
answer by another route still passes (an alternative nonlinear scheme
agrees with the current one within 3e-9 relative) while a wrong number
fails; ``make_expected.py --control`` checks the first half of that
claim.  Each check returns ``None`` for a correct output and a short
reason otherwise; the ``perturb_*`` helpers build the negative control.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import close

#: Circuit-solver outputs: 30x the cross-method agreement.
VOLTAGE_RTOL = 1e-7
#: Monte-Carlo error statistics and service documents: error
#: statistics are differences of nearly equal voltages, so they get an
#: absolute floor in error units as well.
MC_RTOL = 1e-5
MC_ATOL = 1e-8
#: Relative change the negative control applies to one number.
PERTURBATION = 1e-3

_NUMBER = re.compile(r"^[-+]?\d+(\.\d+)?(e[-+]?\d+)?%?$")


# -- cli-paper: rendered tables ----------------------------------------
def _decimals(token: str) -> int:
    body = token.rstrip("%")
    return len(body.split(".")[1]) if "." in body else 0


def check_cli(stdout: str, expected: str) -> Optional[str]:
    """Token-wise comparison; numbers may differ by one printed unit."""
    got, want = stdout.split(), expected.split()
    if len(got) != len(want):
        return f"table has {len(got)} tokens, expected {len(want)}"
    for position, (a, b) in enumerate(zip(got, want)):
        if a == b:
            continue
        if not (_NUMBER.match(a) and _NUMBER.match(b)):
            return f"token {position}: {a!r} != {b!r}"
        unit = 10.0 ** -_decimals(b)
        x, y = float(a.rstrip("%")), float(b.rstrip("%"))
        if not close(x, y, 1e-6, atol=1.01 * unit):
            return f"token {position}: {a} != {b}"
    return None


def perturb_cli(stdout: str) -> str:
    """Change the largest number in the table by PERTURBATION."""
    numbers = [m for m in re.finditer(r"\S+", stdout)
               if _NUMBER.match(m.group())]
    if not numbers:
        return stdout + " perturbed"
    target = max(numbers, key=lambda m: abs(float(m.group().rstrip("%"))))
    token = target.group()
    decimals = _decimals(token)
    value = float(token.rstrip("%"))
    # At least three printed units, so rounding cannot hide the change.
    value += max(abs(value) * PERTURBATION, 3 * 10.0 ** -decimals)
    text = f"{value:.{decimals}f}" + ("%" if token.endswith("%") else "")
    return stdout[:target.start()] + text + stdout[target.end():]


# -- mc-accuracy: Monte-Carlo error summaries --------------------------
MC_FIELDS = ("mean_abs_error", "max_abs_error", "p50_abs_error",
             "p95_abs_error", "p99_abs_error")


def mc_record(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The checked part of a Monte-Carlo result document."""
    record = {name: doc["summary"][name] for name in MC_FIELDS}
    record["samples"] = doc["summary"]["samples"]
    record["abs_sum"] = math.fsum(abs(v) for v in doc["samples"])
    return record


def check_mc(doc: Dict[str, Any], expected: Dict[str, Any]) -> Optional[str]:
    got = mc_record(doc)
    if got["samples"] != expected["samples"]:
        return f"samples {got['samples']} != {expected['samples']}"
    for name in MC_FIELDS + ("abs_sum",):
        atol = MC_ATOL * (expected["samples"] if name == "abs_sum" else 1)
        if not close(got[name], expected[name], MC_RTOL, atol=atol):
            return f"{name} {got[name]!r} != {expected[name]!r}"
    return None


def perturb_mc(doc: Dict[str, Any]) -> Dict[str, Any]:
    bad = copy.deepcopy(doc)
    bad["summary"]["mean_abs_error"] *= 1 + PERTURBATION
    return bad


# -- xbar-worst: solver output voltages --------------------------------
def check_xbar(voltages: Sequence[float], converged: bool,
               expected: Sequence[float]) -> Optional[str]:
    if not converged:
        return "solve did not converge"
    if len(voltages) != len(expected):
        return f"{len(voltages)} outputs, expected {len(expected)}"
    scale = max(abs(v) for v in expected)
    worst = max(abs(a - b) for a, b in zip(voltages, expected))
    if not worst <= VOLTAGE_RTOL * scale:
        return f"output voltages off by {worst / scale:.3g} relative"
    return None


def perturb_xbar(voltages: Sequence[float]) -> List[float]:
    bad = list(voltages)
    bad[0] *= 1 + PERTURBATION
    return bad


# -- service-jobs: result documents -----------------------------------
#: Keys whose values are error statistics of solved circuits (faults
#: campaigns, behaviour-model error rates): differences of nearly equal
#: voltages, so they get an absolute floor in error units as well.
_ERROR_KEYS = re.compile(r"(error|error_rate|ci95|relative_accuracy)$")
#: Absolute floor for those keys: a 3e-9 relative change in every
#: voltage moves an error over one scale by at most about 6e-9.
DOC_ERROR_ATOL = 1e-7


def _walk(value: Any, key: str, exact: bool,
          numbers: List[Tuple[float, str]]) -> Any:
    """Structure of a document with every float replaced by a marker;
    ``numbers`` gets each float with how it is compared."""
    if isinstance(value, dict):
        return {k: _walk(value[k], k, exact or k == "spec", numbers)
                for k in sorted(value)}
    if isinstance(value, list):
        return [_walk(v, key, exact, numbers) for v in value]
    if isinstance(value, float):
        kind = ("exact" if exact
                else "error" if _ERROR_KEYS.search(key) else "value")
        numbers.append((value, kind))
        return "<float>"
    return value


def _flatten(doc: Dict[str, Any]) -> Tuple[str, List[Tuple[float, str]]]:
    """A hash of everything but the floats (structure, strings, integers,
    booleans), and the floats in document order with their kinds."""
    numbers: List[Tuple[float, str]] = []
    shape = json.dumps(_walk(doc, "", False, numbers), sort_keys=True)
    return hashlib.sha256(shape.encode()).hexdigest()[:16], numbers


def doc_record(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The checked content of a result document."""
    shape, numbers = _flatten(doc)
    return {"shape": shape, "numbers": [value for value, _kind in numbers]}


def check_doc(doc: Dict[str, Any],
              expected: Dict[str, Any]) -> Optional[str]:
    """Exact on structure, strings, integers and the echoed ``spec``;
    every other float within ``MC_RTOL``, error statistics also within
    ``DOC_ERROR_ATOL``."""
    shape, numbers = _flatten(doc)
    if shape != expected["shape"]:
        return "document structure differs"
    if len(numbers) != len(expected["numbers"]):
        return "document has a different number of floats"
    for position, ((got, kind), want) in enumerate(
            zip(numbers, expected["numbers"])):
        if kind == "exact":
            ok = got == want
        else:
            ok = close(got, want, MC_RTOL,
                       atol=DOC_ERROR_ATOL if kind == "error" else 0.0)
        if not ok:
            return f"float {position} ({kind}) {got!r} != {want!r}"
    return None


def perturb_doc(doc: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Scale the largest computed float of a document by PERTURBATION
    (echoed inputs are left alone); None if it has no computed float,
    as an explore document with no feasible design has not."""
    bad = copy.deepcopy(doc)
    slots: List[Tuple[float, Any, Any]] = []

    def visit(value: Any, in_spec: bool) -> None:
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else ())
        for key, item in items:
            if isinstance(item, float) and not in_spec:
                slots.append((abs(item), value, key))
            else:
                visit(item, in_spec or key == "spec")

    visit(bad, False)
    if not slots:
        return None
    _size, container, key = max(slots, key=lambda slot: slot[0])
    container[key] *= 1 + PERTURBATION
    return bad
