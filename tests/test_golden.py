"""Golden gate: CLI artifacts and library results against the recorded
fingerprints in tests/golden/fingerprints.json.

Every number must agree within the tolerance of its quantity on any
machine. When numpy's version and the machine match the recorded ones,
every number and every artifact must agree bit for bit as well. A change
that moves results on purpose regenerates the file with
`tests/golden/regenerate.py` and names the moved values.
"""

import json
import math
import re

import pytest

from golden import regenerate

GOLDEN = json.loads(regenerate.FINGERPRINTS.read_text(encoding="utf-8"))
SAME_PLATFORM = GOLDEN["recorded_on"] == regenerate.platform_record()

# Flows, Grammians and Newton solves are a few hundred to a few thousand
# roundings deep and well conditioned, so input roundoff moves them by a
# few ulp: rel 1e-12. The absolute floor covers values that are roundoff
# themselves, such as the error of a noise-free estimate (~1e-17).
REL, ABS = 1e-12, 1e-15
# The final gradient norm of a noise-free solve is the roundoff of a
# Simpson sum over the window's few hundred nodes, of terms of order one:
# n * eps ~ 5e-14. 1.3e-15 -> 0 was measured for one change of the input
# roundings.
GRAD_NORM_ABS = 1e-13
# One finite-difference level: an FD Hessian of the analytic gradient at
# step 1e-5 divides the gradient's roundoff (~1e-16 rel) by the step, so
# ~1e-11 rel. This covers hess_min_eig, hess_cum_error full_fd and the
# multistart cluster radius taken from hess_min_eig; 1.4e-11 rel was
# measured.
FD = ("hess_min_eig", "hessian", "cluster_radius")
FD_REL = 1e-10
# The uniform audit's a1_hat differences FD Hessians (step 1e-5) at
# delta = 1e-3, so input roundoff is amplified by about 1 / (1e-5 * 1e-3):
# ~1e-8 rel. g1, bound_factor and predicted_bound inherit it; 1.1e-9 rel
# was measured.
NESTED_FD = ("a1_hat", "g1", "bound_factor", "predicted_bound")
NESTED_FD_REL = 1e-8


def _tolerance(key: str) -> tuple[float, float]:
    """(rel, abs floor) for the quantity a key names, e.g. "xi_star[0]",
    "audit.json:.a1_hat" or "windows.csv:r2:grad_norm"."""
    name = re.sub(r"\[\d+\]", "", key.rsplit(":", 1)[-1].rsplit(".", 1)[-1])
    if name in NESTED_FD:
        return NESTED_FD_REL, ABS
    if name in FD:
        return FD_REL, ABS
    if name == "grad_norm":
        return REL, GRAD_NORM_ABS
    return REL, ABS


def _close(got: float, want: float, rel: float, floor: float) -> bool:
    if math.isnan(want) or math.isinf(want):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= max(rel * abs(want), floor)


def test_every_case_is_recorded():
    assert sorted(GOLDEN["cases"]) == sorted(regenerate.CASES)


@pytest.mark.parametrize("name", sorted(GOLDEN["cases"]))
def test_case_matches_fingerprints(name):
    want = GOLDEN["cases"][name]
    got = regenerate.CASES[name]()
    assert got["other"] == want["other"]
    assert sorted(got["numbers"]) == sorted(want["numbers"])
    moved = []
    for key, hexed in want["numbers"].items():
        a, b = float.fromhex(got["numbers"][key]), float.fromhex(hexed)
        if not _close(a, b, *_tolerance(key)):
            moved.append(f"{key}: {a!r} != {b!r}")
    assert not moved, "\n".join(moved)
    if SAME_PLATFORM:
        assert got["numbers"] == want["numbers"]
        assert got.get("sha256") == want.get("sha256")
