"""Output checks on one pass: coverage and properties of the identities.

Nothing here compares against a stored copy of earlier reports.  The checks
are what the method must satisfy whatever the implementation:

* every check the workload names is present and passed (extra keys are
  allowed and counted);
* the BKS factor exponent -2 log(factor) / (s - s') is one number per irrep,
  the same in every cell with s != s';
* those exponents are affine in the textbook Casimir (k^2 on U(1), j(j+1) on
  SU(2), (p^2+q^2+pq+3p+3q)/3 on SU(3)) with one common positive slope, so
  irreps with equal Casimir, such as the dual SU(3) pair (1,0), (0,1) or the
  U(1) pair k, -k, give equal factors;
* unitarity ratios are within their tolerance of 1;
* the prequantum norm ratio differs from 1 by more than its tolerance.
"""

from __future__ import annotations

import math
from ast import literal_eval

# irreps the suite builds for the default band limit (bks-factor) and for
# the spectral checks (unitarity, factorization), by group
BAND_LABELS = {
    "torus": [(k,) for k in range(-5, 6) if k],
    "su2": [(m,) for m in range(1, 5)],
    "su3": [(1, 0), (0, 1)],
}
SPEC_LABELS = {
    "torus": [(k,) for k in range(6)],
    "su2": [(m,) for m in range(6)],
    "su3": [(0, 0), (1, 0), (1, 1)],
}


def _fmt(x: float) -> str:
    return f"{x:g}"


def _near(values, target):
    return min(values, key=lambda v: abs(v - target))


def expected_keys(group: str, families, s_grid, s_prime_grid) -> set:
    """Check keys a run of these identity families must report."""
    s_pos = [s for s in s_grid if s > 0.0]
    sp_pos = [s for s in s_prime_grid if s > 0.0]
    if group == "su3":
        # one representative cell; a wider SU(3) grid shows up as extra keys
        cells = [(_near(s_pos, 1.0), _near(sp_pos, 0.5))]
        cells_zero = cells + [(cells[0][0], 0.0)]
    else:
        cells = [(s, sp) for s in s_pos for sp in sp_pos]
        cells_zero = [(s, sp) for s in s_pos for sp in s_prime_grid]

    def cell(s, sp):
        return f"s={_fmt(s)}:sp={_fmt(sp)}"

    keys = set()
    for fam in families:
        head = f"{fam}/{group}"
        if fam in ("wedge", "phi-flatness", "continuity"):
            keys.add(head)
        elif fam == "cst-unitarity":
            keys.update(f"{head}/analytic/s={_fmt(s)}" for s in s_pos)
            if group != "su3":
                keys.add(f"{head}/quadrature/s={_fmt(min(s_pos))}")
        elif fam == "pairing":
            keys.update(f"{head}/{route}/{cell(s, sp)}"
                        for s, sp in cells for route in ("random", "orthogonal"))
        elif fam == "bks-factor":
            keys.update(f"{head}/{lab}/{cell(s, sp)}"
                        for lab in BAND_LABELS[group] for s, sp in cells)
        elif fam == "unitarity":
            keys.update(f"{head}/{lab}/{cell(s, sp)}"
                        for lab in SPEC_LABELS[group] for s, sp in cells_zero)
        elif fam == "factorization":
            keys.update(f"{head}/{lab}" for lab in SPEC_LABELS[group])
        elif fam == "vertical-limit":
            keys.update((f"{head}/direct", f"{head}/extrapolation"))
        elif fam == "delta" and group != "su3":
            keys.update(f"{head}/one/({m},)" for m in range(3))
            keys.update(f"{head}/two/({m},)"
                        for m in range(2 if group == "torus" else 3))
        elif fam == "prequantum" and group != "torus":
            keys.add(head)
    return keys


def textbook_casimir(group: str, label) -> float:
    if group == "torus":
        return float(sum(k * k for k in label))
    if group == "su2":
        j = label[0] / 2.0
        return j * (j + 1.0)
    p, q = label
    return (p * p + q * q + p * q + 3 * p + 3 * q) / 3.0


def _bks_exponents(reports, problems):
    """irrep label -> list of (exponent, its error bound) over cells s != s'.

    The report passes when |expm1(log factor - log closed)| <= tol, so the
    log factor is known to about tol and the exponent to 2 tol / |s - s'|.
    """
    out = {}
    for rep in reports:
        if rep["identity"] != "bks-factor":
            continue
        p = rep["params"]
        ds = p["s"] - p["s_prime"]
        lhs = rep["lhs"][0]
        if p.get("scale") != "log" and not lhs > 0.0:
            problems.append(f"bks-factor {rep['key']}: factor {lhs!r} is not positive")
            continue
        if ds == 0.0:
            continue
        log_factor = lhs if p.get("scale") == "log" else math.log(lhs)
        err = 2.0 * 1.01 * rep["tolerance"] / abs(ds)
        out.setdefault(literal_eval(p["irrep"]), []).append(
            (-2.0 * log_factor / ds, err))
    return out


def property_problems(group: str, reports) -> list:
    """Violations of the identity properties listed in the module docstring."""
    problems = []
    per_irrep = {}
    for label, values in _bks_exponents(reports, problems).items():
        ref, ref_err = min(values, key=lambda v: v[1])
        for e, err in values:
            if abs(e - ref) > err + ref_err:
                problems.append(f"bks-factor {label}: exponent {e!r} differs "
                                f"from {ref!r} across cells")
        per_irrep[label] = (ref, ref_err)
    if per_irrep:
        cas = {label: textbook_casimir(group, label) for label in per_irrep}
        (e_lo, err_lo), c_lo = per_irrep[min(cas, key=cas.get)], min(cas.values())
        (e_hi, err_hi), c_hi = per_irrep[max(cas, key=cas.get)], max(cas.values())
        slope = (e_hi - e_lo) / (c_hi - c_lo) if c_hi > c_lo else 0.0
        if c_hi > c_lo and slope <= 0.0:
            problems.append(f"bks-factor: exponent slope {slope!r} is not positive")
        for label, (e, err) in per_irrep.items():
            # a line through the extreme Casimirs predicts every irrep,
            # and equal Casimirs (dual irreps) predict equal exponents
            off = abs(e - e_lo - slope * (cas[label] - c_lo))
            if off > err + 2.0 * err_lo + err_hi:
                problems.append(f"bks-factor {label}: exponent {e!r} is off the "
                                f"Casimir line by {off:.3e}")
    for rep in reports:
        ratio, tol = rep["lhs"][0], rep["tolerance"]
        if rep["identity"] == "unitarity" and not abs(ratio - 1.0) <= tol:
            problems.append(f"unitarity ratio {ratio!r} is not within {tol} of 1 "
                            f"({rep['params']})")
        if rep["identity"] == "prequantum" and not abs(ratio - 1.0) > tol:
            problems.append(f"prequantum norm ratio {ratio!r} is within {tol} of 1")
    return problems


def pass_problems(payload: dict, expected: set, group: str) -> tuple[list, int]:
    """(problems, extra key count) for one parsed reports.json."""
    reports = payload["reports"]
    keys = [rep["key"] for rep in reports]
    problems = []
    if len(set(keys)) != len(keys):
        problems.append("duplicate check keys")
    missing = sorted(expected - set(keys))
    if missing:
        problems.append(f"{len(missing)} named checks missing, e.g. {missing[0]}")
    problems += [f"check failed: {rep['key']}" for rep in reports if not rep["passed"]]
    problems += property_problems(group, reports)
    return problems, len(set(keys) - expected)
