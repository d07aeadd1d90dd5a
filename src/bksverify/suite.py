"""Identity suite: verification jobs run in one serial loop, sorted by key.

Every job is pure given (config, job key): random draws come from a
generator seeded by hashing the key against the config seed, so a job
gives the same numbers whether it runs alone (``verify IDENTITY``) or
among all the others (``verify all``).  Failures are recorded per job
and do not abort the run.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import time
import traceback
import zlib
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from . import pairing, quadrature
from .config import FAMILIES, ConfigError, RunConfig
from .groups import GroupSpec, casimir, enumerate_irreps, group_spec, make_irrep
from .halfform import phi_flatness_residual, wedge_density, wedge_density_det
from .heat import (
    a_s,
    cst_forward,
    hl2_inner,
    hl2_inner_quadrature,
    l2_inner,
    make_function,
    random_band_limited,
)
from .pairing import PairingReport, PrequantumSection, QuantumSection, _report


@dataclass(frozen=True)
class Job:
    key: str
    thunk: object


@dataclass(frozen=True)
class SuiteReport:
    """Config echo, keyed reports, summary counts, wall clock, version."""

    config: dict
    reports: list  # of (key, PairingReport), sorted by key
    summary: dict
    wall_clock: float
    version: str


def _report_jsonable(rep: PairingReport) -> dict:
    return {
        "identity": rep.identity,
        "group": rep.group,
        "params": {k: rep.params[k] for k in sorted(rep.params)},
        "lhs": [float(np.real(rep.lhs)), float(np.imag(rep.lhs))],
        "rhs": [float(np.real(rep.rhs)), float(np.imag(rep.rhs))],
        "residual": rep.residual,
        "error_estimate": rep.error_estimate,
        "tolerance": rep.tolerance,
        "passed": rep.passed,
    }


def _job_seed(seed: int, key: str) -> int:
    ss = np.random.SeedSequence([seed, zlib.crc32(key.encode())])
    return int(ss.generate_state(1)[0])


def _tol(cfg: RunConfig, family: str, route: str = "") -> float:
    """The family's bar, its override or its default for ``route`` (a
    route or group kind where the default is one per route or kind),
    times the tolerance scale."""
    bar = FAMILIES[family].bar
    default = bar[route] if isinstance(bar, dict) else bar
    return cfg.tolerance_overrides.get(family, default) * cfg.tolerance_scale


def _grid_value_near(values, target):
    return min(values, key=lambda v: abs(v - target))


def _label(group: GroupSpec, m: int) -> tuple:
    """Frequency m on a torus, doubled spin m on SU(2), Dynkin (m, 0) on SU(3)."""
    return (m,) + (0,) * (group.rank - 1)


def default_band_limit(group: GroupSpec) -> float:
    """Casimir cutoff for test functions: |k| <= 5, j <= 2, or su3 fundamentals."""
    m = {"torus": 5, "su2": 4}.get(group.kind, 1)
    return casimir(group, _label(group, m)) + 1e-9


def _fmt(x: float) -> str:
    return f"{x:g}"


# -- job bodies ----------------------------------------------------------


def _draw(group, band, seed, count=2):
    """``count`` band-limited functions, in order, from the job's generator."""
    rng = np.random.default_rng(seed)
    return [random_band_limited(group, band, rng) for _ in range(count)]


def _norm_product(f, fp) -> float:
    """sqrt(|<f, f>| |<f', f'>|), the scale of a residual on <f, f'>."""
    return math.sqrt(abs(l2_inner(f, f)) * abs(l2_inner(fp, fp)))


def _sample_draws(group, seed, samples, params):
    """``samples`` algebra vectors Y, each followed in the job's generator by
    ``params`` uniform parameters in [0.25, 3]; returns Y and one array per
    parameter."""
    rng = np.random.default_rng(seed)
    Y, p = np.empty((samples, group.dim)), np.empty((params, samples))
    for i in range(samples):
        Y[i] = rng.standard_normal(group.dim)
        p[:, i] = rng.uniform(0.25, 3.0, params)
    return (Y, *p)


def _job_wedge(group, tol, seed, samples=100):
    Y, s, sp = _sample_draws(group, seed, samples, 2)
    direct = wedge_density(group, s, sp, Y)
    det = wedge_density_det(group, s, sp, Y)
    rel = np.abs(det - direct) / np.abs(direct)
    # the first sample of largest relative error reports its own values;
    # when every sample agrees exactly the row reads 1 against 1
    worst = int(np.argmax(rel))
    if rel[worst] > 0.0:
        lhs, rhs = complex(det[worst]), float(direct[worst])
    else:
        lhs, rhs = 1.0 + 0.0j, 1.0
    return _report(
        "wedge", group, {"samples": samples},
        lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs)), 0.0, tol,
    )


def _job_phi_flatness(group, tol, seed, samples=100, h=1e-5):
    # at h = 1e-4 the O(h^2) truncation of the central difference reached
    # 5e-7 on SU(3), half the 1e-6 bar; at 1e-5 the worst of 40 seeds is
    # 5.7e-9, so the residual measures phi, not the step
    Y, s = _sample_draws(group, seed, samples, 1)
    worst = float(np.max(np.abs(phi_flatness_residual(group, s, Y, h))))
    return _report(
        "phi-flatness", group, {"samples": samples, "h": h},
        worst, 0.0, worst, 0.0, tol,
    )


def _job_cst_analytic(group, hbar0, s, band, tol, seed):
    # the e^{hbar c_R} measure weight must stay inside float range even
    # though it cancels analytically against the transform factors
    band = min(band, 600.0 / (hbar0 * s))
    f, fp = _draw(group, band, seed)
    hbar = hbar0 * s
    lhs = hl2_inner(group, hbar0, s, cst_forward(hbar, f), cst_forward(hbar, fp))
    rhs = l2_inner(f, fp)
    scale = _norm_product(f, fp)
    rel = abs(lhs - rhs) / scale
    return _report(
        "cst-unitarity", group,
        {"route": "analytic", "hbar0": hbar0, "s": s, "band_limit": band},
        lhs, rhs, rel, 0.0, tol,
    )


def _job_cst_quadrature(group, hbar0, s, band, points, tol, seed):
    # restricted band: matrix-element growth e^{2 k beta} must stay well
    # inside float range over the full reach of the Hermite rule
    cap = casimir(group, _label(group, 2 if group.kind == "torus" else 4))
    band = min(band, cap + 1e-9)
    f, fp = _draw(group, band, seed)
    hbar = hbar0 * s
    F, Fp = cst_forward(hbar, f), cst_forward(hbar, fp)
    lhs, err = hl2_inner_quadrature(group, hbar0, s, F, Fp, points=points)
    rhs = hl2_inner(group, hbar0, s, F, Fp)
    # relative to the inner product under test: over ||f|| ||f'|| a
    # relative error e would read only e |<f, f'>| / (||f|| ||f'||)
    scale = abs(l2_inner(f, fp))
    rel = abs(lhs - rhs) / scale
    return _report(
        "cst-unitarity", group,
        {"route": "quadrature", "hbar0": hbar0, "s": s, "band_limit": band,
         "points": points},
        lhs, rhs, rel, abs(err) / scale, tol,
    )


def _job_pairing_random(group, hbar0, s, sp, band, n_pairs, char_log, tol, seed):
    draws = _draw(group, band, seed, 2 * n_pairs)
    amid = a_s(group, hbar0, 0.5 * (s + sp))
    worst = 0.0
    worst_vals = (0.0 + 0.0j, 0.0 + 0.0j)
    err_worst = 0.0
    for f, fp in zip(draws[::2], draws[1::2]):
        val, err = pairing.quantum_pair(
            QuantumSection(s=s, f=f, hbar0=hbar0),
            QuantumSection(s=sp, f=fp, hbar0=hbar0),
            char_log,
        )
        target = amid * l2_inner(f, fp)
        scale = amid * _norm_product(f, fp)
        rel = abs(val - target) / scale
        if rel > worst:
            worst, worst_vals, err_worst = rel, (val, target), err / scale
    return _report(
        "pairing", group,
        {"hbar0": hbar0, "s": s, "s_prime": sp, "band_limit": band,
         "pairs": n_pairs},
        worst_vals[0], worst_vals[1], worst, err_worst, tol,
    )


def _job_pairing_orthogonal(group, hbar0, s, sp, band, char_log, tol, seed):
    f, fp = _draw(group, band, seed)
    # blockwise Gram-Schmidt so <f, f_perp> = 0 at machine precision
    coeff = l2_inner(f, fp) / l2_inner(f, f)
    blocks = {
        label: fp.blocks[label] - coeff * f.blocks[label] for label in f.labels()
    }
    f_perp = make_function(group, blocks)
    val, err = pairing.quantum_pair(
        QuantumSection(s=s, f=f, hbar0=hbar0),
        QuantumSection(s=sp, f=f_perp, hbar0=hbar0),
        char_log,
    )
    amid = a_s(group, hbar0, 0.5 * (s + sp))
    scale = amid * _norm_product(f, f_perp)
    rel = abs(val) / scale
    return _report(
        "pairing", group,
        {"hbar0": hbar0, "s": s, "s_prime": sp, "band_limit": band,
         "orthogonal": True},
        val, 0.0 + 0.0j, rel, err / scale, tol,
    )


def _job_bks_factor(group, hbar0, s, sp, irrep, char_log, tol):
    # log-space comparison: at large (s - s') c_R the factor itself
    # leaves float range while the log residual stays well defined
    log_num, err = pairing.bks_factor_log(group, hbar0, s, sp, irrep, char_log)
    log_closed = pairing.bks_exponent(group, hbar0, s, sp, irrep)
    rel = abs(math.expm1(log_num - log_closed))
    params = {"hbar0": hbar0, "s": s, "s_prime": sp, "irrep": str(irrep.label)}
    if abs(log_closed) <= 300.0:
        lhs, rhs = math.exp(log_num), math.exp(log_closed)
    else:
        lhs, rhs = log_num, log_closed
        params["scale"] = "log"
    return _report("bks-factor", group, params, lhs, rhs, rel, err, tol)


def _job_factorization(group, hbar0, cells, triples, irrep, tol):
    # value-space agreement is meaningful only while e^{arg} rounding
    # (rel error ~ |arg| eps) sits below the tolerance
    exponent = pairing.bks_exponent
    usable = [
        (s, sp) for s, sp in cells
        if abs(exponent(group, hbar0, s, sp, irrep)) <= 70.0
    ]
    if not usable:
        usable = [min(cells, key=lambda c: abs(c[0] - c[1]))]
    # the worst cell reports its own two routes, the first cell on a tie
    worst = max(
        (pairing.verify_factorization(group, hbar0, s, sp, irrep, tol)
         for s, sp in usable),
        key=lambda rep: rep.residual,
    )
    comp_worst = 0.0
    for s1, s2, s3 in triples:
        two_step = exponent(group, hbar0, s1, s2, irrep) \
            + exponent(group, hbar0, s2, s3, irrep)
        one_step = exponent(group, hbar0, s1, s3, irrep)
        comp_worst = max(comp_worst, abs(math.expm1(two_step - one_step)))
    return _report(
        "factorization", group,
        {"hbar0": hbar0, "irrep": str(irrep.label), "cells": len(usable),
         "composition_residual": comp_worst},
        worst.lhs, worst.rhs, max(worst.residual, comp_worst), 0.0, tol,
    )


def _job_vertical_direct(group, hbar0, s, band, char_log, tol, seed):
    f, fp = _draw(group, band, seed)
    val, err = pairing.vertical_pair(hbar0, s, f, fp, char_log)
    target = a_s(group, hbar0, 0.5 * s) * l2_inner(f, fp)
    scale = a_s(group, hbar0, 0.5 * s) * _norm_product(f, fp)
    rel = abs(val - target) / scale
    return _report(
        "vertical-limit", group,
        {"route": "direct", "hbar0": hbar0, "s": s, "band_limit": band},
        val, target, rel, err / scale, tol,
    )


def _job_vertical_extrapolation(group, hbar0, s, band, char_log, seed):
    # linear-in-s' Richardson from two small parameters; the tolerance
    # is three times the extrapolation's own error estimate
    f, fp = _draw(group, band, seed)
    target, _ = pairing.vertical_pair(hbar0, s, f, fp, char_log)
    s1, s3 = 1e-2, 1e-3
    v1, _ = pairing.quantum_pair(
        QuantumSection(s=s, f=f, hbar0=hbar0),
        QuantumSection(s=s1, f=fp, hbar0=hbar0), char_log,
    )
    v3, _ = pairing.quantum_pair(
        QuantumSection(s=s, f=f, hbar0=hbar0),
        QuantumSection(s=s3, f=fp, hbar0=hbar0), char_log,
    )
    extrap = (s1 * v3 - s3 * v1) / (s1 - s3)
    est = abs(extrap - v3)
    resid = abs(extrap - target)
    # on tori the pairing is constant in s', so the extrapolation error
    # estimate is pure quadrature noise; a floor keeps the comparison
    # from pitting one rounding artifact against another
    floor = 1e-10 * max(abs(target), 1.0)
    return _report(
        "vertical-limit", group,
        {"route": "extrapolation", "hbar0": hbar0, "s": s,
         "s_prime_nodes": [s1, s3], "band_limit": band},
        extrap, target, resid, est, max(3.0 * est, floor),
    )


def _job_continuity(group, hbar0, band, char_log, tol, seed):
    (f,) = _draw(group, band, seed, count=1)
    return pairing.continuity_check(group, hbar0, f, (4e-3, 2e-3, 1e-3), char_log, tol)


def _job_prequantum(group, tol):
    s_from, s_to = 4.0, 1.0

    def amp(Y):
        return np.exp(-0.5 * np.sum(Y * Y, axis=-1))

    sec = PrequantumSection(group=group, s=s_from, amplitude=amp)
    mapped = pairing.preq_map_apply(s_to, s_from, sec)
    moved = pairing.preq_parallel_transport(s_to, s_from, sec)
    # the norms integrate e^{-|Y|^2} and e^{-|Y|^2} phi(Y); phi reads only
    # root values, so both integrands are Ad-invariant and the Cartan rule
    # applies
    quad = quadrature.cartan_quadrature(group, 9.0, points_per_panel=14, panels=10)
    n0, e0 = pairing.preq_norm_sq(sec, quad)
    n1, e1 = pairing.preq_norm_sq(mapped, quad)
    n2, _ = pairing.preq_norm_sq(moved, quad)
    ratio = math.sqrt(n1 / n0)
    contrast = abs(ratio - 1.0)
    # inverted check: the prequantum map must FAIL to preserve the norm
    # while parallel transport preserves it exactly
    drift = abs(n2 / n0 - 1.0)
    if drift > 1e-10:
        raise ArithmeticError(f"parallel transport moved the norm by {drift:.3e}")
    return _report(
        "prequantum", group,
        {"s": s_to, "s_prime": s_from, "transport_drift": drift,
         "check": "norm ratio must differ from 1 beyond tolerance"},
        ratio, 1.0, contrast, (e0 + e1) / n0, tol,
    )


# -- job list ------------------------------------------------------------


def _group(cfg: RunConfig) -> GroupSpec:
    return group_spec(cfg.group, n=cfg.torus_rank, normalization=cfg.normalization)


def check_rule_size(what: str, group: GroupSpec, length: int, dim: int,
                    hermite: bool = False) -> None:
    """ConfigError when ``what`` on ``group`` needs a rule over a quadrature
    cap: ``length`` ** ``dim`` nodes over MAX_TENSOR_NODES, or, for a 1-D
    Gauss-Hermite ``length`` (``hermite``), one over MAX_RULE_POINTS."""
    if hermite and length > quadrature.MAX_RULE_POINTS:
        raise ConfigError(
            f"{what} on {group.describe()} needs a {length}-point Gauss-Hermite "
            f"rule, over the cap of {quadrature.MAX_RULE_POINTS} points"
        )
    nodes, cap = length**dim, quadrature.MAX_TENSOR_NODES
    if nodes > cap:
        raise ConfigError(
            f"{what} on {group.describe()} needs a {length}^{dim} = "
            f"{nodes:,}-node rule, over the cap of {cap:,} nodes"
        )


def _check_rule_sizes(cfg: RunConfig, group: GroupSpec) -> None:
    """check_rule_size on the rules of every selected family.  On tori the
    families that read the character table build Gauss-Hermite rules of
    ``hermite_points``, and delta-two's fiber rule is 1-D at every rank;
    SU(2)'s spherical-radial rules take their radial nodes from one
    2 * points rule.  On SU(2) and SU(3) the table families build
    Cartan-reduced rules of ``points_per_panel * panels`` nodes per Cartan
    coordinate, which only the node cap bounds."""
    table = ("pairing", "bks-factor", "unitarity", "vertical-limit", "continuity")
    n = group.dim
    # (nodes per coordinate, coordinates, whether the 1-D length cap holds)
    cartan = [(cfg.points_per_panel * cfg.panels, group.rank, False)]
    rules = {
        "torus": {"cst-unitarity": [(cfg.hl2_points_torus, n, True)],
                  "delta": [(pairing.DELTA_ONE_POINTS, n, True),
                            (cfg.delta_points_torus, 1, True)],
                  **dict.fromkeys(table, [(cfg.hermite_points, n, True)])},
        "su2": {"cst-unitarity": [(2 * cfg.hl2_points_su2, 1, True)],
                "delta": [(2 * cfg.delta_points_su2, 1, True)],
                **dict.fromkeys(table, cartan)},
        "su3": dict.fromkeys(table, cartan),
    }[group.kind]
    for family in cfg.identities:
        for rule in rules.get(family, ()):
            check_rule_size(family, group, *rule)


def build_jobs(cfg: RunConfig) -> list:
    """All jobs for the configured group and identity selection; the one
    place that derives a run's band limit, character table and cells."""
    group = _group(cfg)
    _check_rule_sizes(cfg, group)
    kind = group.kind
    band = cfg.band_limit if cfg.band_limit is not None else default_band_limit(group)
    band_irreps = [r for r in enumerate_irreps(group, band) if r.casimir > 0.0]
    # a miss fills the band at its t only if a selected family reads the
    # band there; otherwise it would compute integrals no job asks for
    band_reads = {"pairing", "bks-factor", "vertical-limit", "continuity"}
    if not band_irreps and {"cst-unitarity", *band_reads} & set(cfg.identities):
        raise ConfigError(
            f"band_limit = {band:g} holds no irrep of positive Casimir on {group.describe()}; "
            f"the smallest positive Casimir there is {casimir(group, _label(group, 1)):g}")
    char_log = pairing.char_log_table(
        group, cfg.hbar0, points_per_panel=cfg.points_per_panel, panels=cfg.panels,
        hermite_points=cfg.hermite_points,
        band_irreps=band_irreps if band_reads & set(cfg.identities) else (),
    )
    s_pos = [s for s in cfg.s_grid if s > 0.0]
    sp_pos = [s for s in cfg.s_prime_grid if s > 0.0]
    s_mid = _grid_value_near(s_pos, 1.0)
    if kind == "su3":
        # su3 runs one representative cell instead of the full grid; the
        # batched integrands make the full grid affordable, and widening
        # it is a change of its own
        cells = [(s_mid, _grid_value_near(sp_pos, 0.5))]
        cells_with_zero = cells + [(s_mid, 0.0)]
        spec_labels = [_label(group, 0), _label(group, 1), (1, 1)]
    else:
        cells = [(s, sp) for s in s_pos for sp in sp_pos]
        cells_with_zero = [(s, sp) for s in s_pos for sp in cfg.s_prime_grid]
        spec_labels = [_label(group, m) for m in range(6)]
    triples = [(s_pos[0], s_mid, s_pos[-1])]
    spec_irreps = [make_irrep(group, label) for label in spec_labels]

    hbar0 = cfg.hbar0
    jobs: list[Job] = []

    def add(key, fn, *args, **kwargs):
        jobs.append(Job(key=key, thunk=functools.partial(fn, *args, **kwargs)))

    def seed(key):
        return _job_seed(cfg.seed, key)

    for family in cfg.identities:
        if kind not in FAMILIES[family].groups:
            continue
        if family == "wedge":
            key = f"wedge/{kind}"
            add(key, _job_wedge, group, _tol(cfg, family), seed(key))
        elif family == "phi-flatness":
            key = f"phi-flatness/{kind}"
            add(key, _job_phi_flatness, group, _tol(cfg, family), seed(key))
        elif family == "cst-unitarity":
            tol_a = _tol(cfg, family, "analytic")
            tol_q = _tol(cfg, family, "quadrature")
            for s in s_pos:
                key = f"cst-unitarity/{kind}/analytic/s={_fmt(s)}"
                add(key, _job_cst_analytic, group, hbar0, s, band, tol_a, seed(key))
            if kind != "su3":
                # smallest s: the matrix-element tilt scales with
                # sqrt(hbar0 s) and sets the Hermite length needed
                s_q = min(s_pos)
                pts = cfg.hl2_points_torus if kind == "torus" else cfg.hl2_points_su2
                key = f"cst-unitarity/{kind}/quadrature/s={_fmt(s_q)}"
                add(key, _job_cst_quadrature, group, hbar0, s_q, band, pts, tol_q,
                    seed(key))
        elif family == "pairing":
            tol = _tol(cfg, family, "random")
            tol_orth = _tol(cfg, family, "orthogonal")
            for s, sp in cells:
                key = f"pairing/{kind}/random/s={_fmt(s)}:sp={_fmt(sp)}"
                add(key, _job_pairing_random, group, hbar0, s, sp, band,
                    cfg.pairs_per_cell, char_log, tol, seed(key))
                key = f"pairing/{kind}/orthogonal/s={_fmt(s)}:sp={_fmt(sp)}"
                add(key, _job_pairing_orthogonal, group, hbar0, s, sp, band,
                    char_log, tol_orth, seed(key))
        elif family == "bks-factor":
            tol = _tol(cfg, family, kind)
            for irrep in band_irreps:
                for s, sp in cells:
                    key = (f"bks-factor/{kind}/{irrep.label}/"
                           f"s={_fmt(s)}:sp={_fmt(sp)}")
                    add(key, _job_bks_factor, group, hbar0, s, sp, irrep, char_log, tol)
        elif family == "unitarity":
            tol = _tol(cfg, family)
            for irrep in spec_irreps:
                for s, sp in cells_with_zero:
                    key = (f"unitarity/{kind}/{irrep.label}/"
                           f"s={_fmt(s)}:sp={_fmt(sp)}")
                    add(key, pairing.verify_unitarity, group, hbar0, s, sp, irrep,
                        char_log, tol)
        elif family == "factorization":
            tol = _tol(cfg, family)
            for irrep in spec_irreps:
                key = f"factorization/{kind}/{irrep.label}"
                add(key, _job_factorization, group, hbar0, cells, triples, irrep, tol)
        elif family == "vertical-limit":
            key = f"vertical-limit/{kind}/direct"
            add(key, _job_vertical_direct, group, hbar0, s_mid, band, char_log,
                _tol(cfg, family), seed(key))
            key = f"vertical-limit/{kind}/extrapolation"
            add(key, _job_vertical_extrapolation, group, hbar0, s_mid, band, char_log,
                seed(key))
        elif family == "continuity":
            key = f"continuity/{kind}"
            add(key, _job_continuity, group, hbar0, band, char_log,
                _tol(cfg, family), seed(key))
        elif family == "delta":
            tol = _tol(cfg, family, kind)
            for irrep in spec_irreps[:3]:
                key = f"delta/{kind}/one/{irrep.label}"
                add(key, pairing.verify_delta_identity, group, hbar0, 1.0, irrep, tol)
            if kind == "su3":
                # delta-two on SU(3) is an 8-D integral of a non-invariant
                # integrand; it runs on tori and SU(2) only
                continue
            pts = cfg.delta_points_torus if kind == "torus" else cfg.delta_points_su2
            for irrep in spec_irreps[:2 if kind == "torus" else 3]:
                key = f"delta/{kind}/two/{irrep.label}"
                add(key, pairing.verify_delta_two, group, hbar0, 1.0, 0.5, 0.3, irrep,
                    tolerance=tol, seed=seed(key), points=pts)
        elif family == "prequantum":
            add(f"prequantum/{kind}", _job_prequantum, group, _tol(cfg, family))
    if cfg.identities and not jobs:
        # a selection that checks nothing must not read as passed
        why = [f"{f} runs on {', '.join(FAMILIES[f].groups)} only"
               if kind not in FAMILIES[f].groups else f"{f} builds none at these settings"
               for f in cfg.identities]
        raise ConfigError(f"the selection builds no check on {group.describe()}: "
                          + "; ".join(why))
    return jobs


# -- runner --------------------------------------------------------------


def _error_report(key: str, cfg: RunConfig, exc: Exception) -> PairingReport:
    # built directly, not through _report: under the inverted prequantum
    # bar its infinite residual would pass
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
    nan, inf = float("nan"), float("inf")
    return PairingReport(key.split("/", 1)[0], _group(cfg).describe(),
                         {"error": f"{type(exc).__name__}: {exc} at {where}"},
                         nan, nan, inf, inf, 0.0, False)


def _run(job: Job, cfg: RunConfig) -> PairingReport:
    """The job's report, or an error report when it raises."""
    try:
        return job.thunk()
    except Exception as exc:  # recorded, not raised
        return _error_report(job.key, cfg, exc)


def run_suite(cfg: RunConfig) -> SuiteReport:
    """Run the configured identity checks; one report per job, never aborting."""
    t0 = time.perf_counter()
    jobs = build_jobs(cfg)

    results = [(job.key, _run(job, cfg)) for job in jobs]
    results.sort(key=lambda pair: pair[0])
    passed = sum(1 for _, rep in results if rep.passed)
    errors = sum(1 for _, rep in results if "error" in rep.params)
    summary = {
        "total": len(results),
        "passed": passed,
        "failed": len(results) - passed,
        "errors": errors,
    }
    return SuiteReport(
        config=cfg.echo(),
        reports=results,
        summary=summary,
        wall_clock=time.perf_counter() - t0,
        version=__version__,
    )


# -- emitters ------------------------------------------------------------

_CSV_COLUMNS = (
    "key", "identity", "group", "params", "lhs_re", "lhs_im", "rhs_re",
    "rhs_im", "residual", "error_estimate", "tolerance", "passed",
)


def render_json(report: SuiteReport) -> str:
    """Canonical JSON text; the wall clock is left out so fixed config +
    seed reproduces the bytes exactly."""
    payload = {
        "version": report.version,
        "config": report.config,
        "summary": report.summary,
        "reports": [{"key": key, **_report_jsonable(rep)} for key, rep in report.reports],
    }
    return json.dumps(payload, indent=2) + "\n"


def render_rows(rows: list, columns: tuple, fmt: str) -> str:
    """Dict rows as an indented JSON list, or as CSV under a ``columns``
    header (written even when there are no rows)."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([row[c] for c in columns] for row in rows)
    return buf.getvalue()


def render_csv(report: SuiteReport) -> str:
    """The report table as CSV, one row per check under ``_CSV_COLUMNS``."""
    rows = []
    for key, rep in report.reports:
        row = _report_jsonable(rep)
        rows.append({
            **row, "key": key, "params": json.dumps(row["params"], sort_keys=True),
            "lhs_re": row["lhs"][0], "lhs_im": row["lhs"][1],
            "rhs_re": row["rhs"][0], "rhs_im": row["rhs"][1],
        })
    return render_rows(rows, _CSV_COLUMNS, "csv")


def _write_text(out_dir: str, filename: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def write_table(rows: list, columns: tuple, fmt: str, out_dir: str, name: str) -> str:
    """Write ``rows`` to ``out_dir/name.fmt``; returns the path."""
    return _write_text(out_dir, f"{name}.{fmt}", render_rows(rows, columns, fmt))


def emit_table(report: SuiteReport, fmt: str, out_dir: str) -> list:
    """Write the report table and a wall-clock summary; returns the paths."""
    table = render_json(report) if fmt == "json" else render_csv(report)
    summary = {
        "version": report.version,
        "summary": report.summary,
        "wall_clock_seconds": report.wall_clock,
    }
    return [
        _write_text(out_dir, f"reports.{fmt}", table),
        _write_text(out_dir, "summary.json", json.dumps(summary, indent=2) + "\n"),
    ]


FACTOR_COLUMNS = (
    "irrep", "s", "s_prime", "numeric_factor", "closed_factor", "residual",
)


def pairing_factor_rows(cfg: RunConfig) -> tuple:
    """The bks-factor checks as rows (irrep, s, s', numeric factor, closed
    factor, residual) in job order, and whether every check passed."""
    rows, all_passed = [], True
    for job in build_jobs(replace(cfg, identities=("bks-factor",))):
        rep = _run(job, cfg)
        all_passed = all_passed and rep.passed
        # factor columns are emitted as plain floats, so cells reported on
        # the log scale (factor out of float range) get no row, and errored
        # cells have no factors to show
        if "error" in rep.params or rep.params.get("scale") == "log":
            continue
        rows.append(dict(zip(FACTOR_COLUMNS, (
            rep.params["irrep"], rep.params["s"], rep.params["s_prime"],
            rep.lhs, rep.rhs, rep.residual,
        ))))
    return rows, all_passed
