"""Symmetric point configurations on [-1,1]^k \\ {0}: the column matrix of
a configuration, extraction from orthonormal frames, the map into projected
product laws, and power-sum identification of column multisets.

A configuration stores one canonical representative per +-pair of atoms
(first nonzero coordinate positive).  The Gram matrix of its column matrix,
and hence every rate evaluated on it, is invariant under re-signing and
reordering atoms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
# kept importable: perfbench/tracing.py patches this module attribute
from scipy.optimize import least_squares  # noqa: F401

from .errors import DimensionMismatch, DomainError, RecoveryFailure
from .linalg import (ColumnList, as_matrix, finite_array, signed_permutation_equal,
                     whole_number)
from .projections import EmpiricalMeasure, ProjectedLaw, law_variance, sample_projected_law


def finite_real(value, name: str) -> float:
    """``value`` as a float; :class:`DomainError` unless a finite real (not a bool)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(float(value)):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise DomainError(f"{name} must be a finite real number, got {value!r}")


def read_fields(doc, kinds: dict, what: str, defaults=None) -> dict:
    """The fields of the JSON object ``doc`` by kind: an int m reads a whole
    number >= m, ``float`` a finite real, a type a value of it (``defaults``
    fills absent fields); :class:`DomainError` names a bad or unknown field."""
    if not isinstance(doc, dict):
        raise DomainError(f"{what} must be a JSON object, got {doc!r:.80}")
    if set(doc) - set(kinds):
        raise DomainError(f"unknown {what} fields: {sorted(set(doc) - set(kinds))}")
    fields = {**(defaults or {}), **doc}
    for name, kind in kinds.items():
        if name not in fields:
            raise DomainError(f"{what} lacks the field {name!r}")
        value = fields[name]
        if kind is float:
            fields[name] = finite_real(value, name)
        elif type(kind) is int:
            fields[name] = whole_number(value, name, kind)
        elif not isinstance(value, kind):
            raise DomainError(f"{name} must be of type {kind.__name__}, got {value!r:.80}")
    return fields


@dataclass
class PointConfiguration:
    """Multiset of +-symmetric atoms in [-1,1]^k \\ {0}.

    ``atoms`` is a list of (point, multiplicity) pairs holding the canonical
    representative of each pair; the encoded measure also contains the
    negated points.  Per coordinate i, sum of multiplicity * point[i]^2 is
    at most 1 (rows of the column matrix sit in the unit ball of l2).
    """

    dim: int
    atoms: list

    @classmethod
    def from_atoms(cls, dim: int, atoms) -> "PointConfiguration":
        dim = whole_number(dim, "dim", 1)
        merged: dict = {}
        order: list = []
        for point, mult in atoms:
            point = finite_array(point, "atom coordinates").reshape(-1)
            if point.size != dim:
                raise DimensionMismatch(f"atom {point.tolist()} does not lie in R^{dim}")
            mult = whole_number(mult, "multiplicity", 1)
            if np.max(np.abs(point)) > 1.0 + 1e-9:
                raise DomainError("atoms must lie in [-1, 1]^k")
            if np.all(point == 0.0):
                raise DomainError("atoms must be nonzero")
            point = point if point[np.flatnonzero(point)[0]] > 0 else -point
            key = point.tobytes()
            if key in merged:
                merged[key][1] += mult
            else:
                merged[key] = [point, mult]
                order.append(key)
        atom_list = [(merged[k][0], merged[k][1]) for k in order]
        row_mass = np.zeros(dim)
        for point, mult in atom_list:
            square = point**2
            # an int compares with a Python float exactly: a multiplicity too
            # large for a float is refused before it meets one
            if mult > (1.0 + 1e-9) / max(float(square.max()), 1e-300):
                raise DomainError("per-coordinate squared mass exceeds 1")
            row_mass += mult * square
        if np.max(row_mass, initial=0.0) > 1.0 + 1e-9:
            raise DomainError("per-coordinate squared mass exceeds 1")
        return cls(dim=dim, atoms=atom_list)

    @classmethod
    def empty(cls, dim: int) -> "PointConfiguration":
        return cls.from_atoms(dim, [])

    @property
    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.atoms)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "atoms": [
                {"point": [float(v) for v in point], "multiplicity": int(mult)}
                for point, mult in self.atoms
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PointConfiguration":
        doc = read_fields(doc, {"dim": 1, "atoms": list}, "configuration")
        atoms = [read_fields(a, {"point": list, "multiplicity": 1}, "atom")
                 for a in doc["atoms"]]
        return cls.from_atoms(doc["dim"], [(a["point"], a["multiplicity"]) for a in atoms])


def config_from_stiefel(v, drop_tol: float = 0.0) -> PointConfiguration:
    """Configuration of +-column pairs of a k x n matrix.

    Columns of norm zero, or below ``drop_tol``, are dropped; exactly equal
    columns (after canonical re-signing) fold into one atom with
    multiplicity.
    """
    v = as_matrix(v)
    k = v.shape[0]
    atoms = []
    for j in range(v.shape[1]):
        col = v[:, j]
        norm = np.linalg.norm(col)
        if norm == 0.0 or norm < drop_tol:
            continue
        atoms.append((col, 1))
    return PointConfiguration.from_atoms(k, atoms)


def config_to_matrix(mu: PointConfiguration) -> ColumnList:
    """Column matrix of a configuration: one column per atom counted with
    multiplicity, canonical signs, ordered by (norm desc, lexicographic)."""
    cols = []
    for point, mult in mu.atoms:
        cols.extend([point] * mult)
    cols.sort(key=lambda c: (-np.linalg.norm(c), tuple(c)))
    if not cols:
        return ColumnList.empty(mu.dim)
    return ColumnList.from_columns(mu.dim, np.column_stack(cols))


def psi(mu, law, sigma, rng, count) -> EmpiricalMeasure:
    """Samples from the projected law attached to a configuration.

    The map fixes sigma^2 = Var(Y); the Gaussian part fills the complement
    of the configuration's Gram matrix.  Delegates to
    :func:`ldplab.projections.sample_projected_law`.
    """
    var = law_variance(law)
    if abs(sigma**2 - var) > 1e-9 * max(1.0, var):
        raise DomainError(
            f"sigma^2 = {sigma ** 2} must equal the product-law variance {var}"
        )
    projected = ProjectedLaw(
        a=config_to_matrix(mu), noise_variance=sigma**2, product_law=law
    )
    return sample_projected_law(rng, projected, count)


def power_sums(alpha, k_min: int, k_max: int) -> np.ndarray:
    """(sum_i alpha_i^k) for k = k_min .. k_max (inclusive)."""
    k_min = whole_number(k_min, "k_min", 3)
    k_max = whole_number(k_max, "k_max", k_min)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.size and np.min(alpha) < 0:
        raise DomainError("entries must be non-negative")
    ks = np.arange(k_min, k_max + 1)
    if alpha.size == 0:
        return np.zeros(ks.size)
    return np.sum(alpha[None, :] ** ks[:, None], axis=1)


# Relative residual a recovered structure may leave in every power sum.
REL_FLOOR = 3e-7


def recover_from_power_sums(sums, count_bound: int, tol: float) -> list:
    """Invert :func:`power_sums`: recover the sorted non-negative sequence.

    ``sums[i]`` must be sum_j alpha_j^(i+3) of some non-increasing sequence
    with at most ``count_bound`` entries.  Entries below ``tol`` times the
    largest entry are left as unresolved tail mass rather than recovered.

    The sums form an exponential sum in k, so the distinct entries are the
    generalised eigenvalues of the shifted Hankel pencil (H_1, H_0) after SVD
    truncation to rank r (Hua & Sarkar, IEEE TASSP 38, 1990), and their
    multiplicities solve one Vandermonde least-squares problem.  Ranks are
    tried from the numerical rank down; the first whose entries are real and
    positive, whose multiplicities round cleanly to at most ``count_bound``
    in total, and whose residual (after two Gauss-Newton steps on the
    entries) is within ``REL_FLOOR`` plus the tail allowance is accepted.
    """
    count_bound = whole_number(count_bound, "count_bound", 1)
    s = finite_array(sums, "power sums")
    if s.ndim != 1 or s.size < 4:
        raise DomainError("need a 1-d list of sums for k = 3..K")
    big_k = s.size + 2
    if big_k < 3 * count_bound + 20:
        raise DomainError(
            f"need K >= 3 * count_bound + 20 = {3 * count_bound + 20}, got {big_k}"
        )
    if np.any(s < 0):
        raise DomainError("power sums of a non-negative sequence cannot be negative")
    ks = np.arange(3, big_k + 1, dtype=np.float64)
    if np.all(s <= 64 * np.finfo(np.float64).eps):
        return []
    hankel = np.lib.stride_tricks.sliding_window_view(s, s.size - count_bound)
    u, sigma, vt = np.linalg.svd(hankel[:, :-1], full_matrices=False)
    scale = np.maximum(s, 1e-300)
    floor = REL_FLOOR * scale
    rank = min(int(np.sum(sigma > 1e-13 * sigma[0])), count_bound)
    for r in range(rank, 0, -1):
        pencil = (u[:, :r].T @ hankel[:, 1:] @ vt[:r].T) / sigma[:r, None]
        nodes = np.linalg.eigvals(pencil)
        if np.any(np.abs(nodes.imag) > 1e-6 * np.max(np.abs(nodes))):
            continue
        nodes = nodes.real
        if np.any(nodes <= 0.0):
            continue
        vander = nodes[None, :] ** ks[:, None]
        fit = np.linalg.lstsq(vander / scale[:, None], s / scale, rcond=None)[0]
        mults = np.rint(fit)
        if (np.any(mults < 1) or np.any(np.abs(fit - mults) > 0.1)
                or mults.sum() > count_bound):
            continue
        # Gauss-Newton on the nodes with the multiplicities fixed: with 1e-10
        # relative noise on the sums, the pencil alone leaves small nodes up
        # to 4e-6 off, further than the residual test allows
        for _ in range(2):
            jac = mults * ks[:, None] * nodes[None, :] ** (ks[:, None] - 1.0)
            nodes = nodes + np.linalg.lstsq(
                jac / scale[:, None], (s - vander @ mults) / scale, rcond=None)[0]
            vander = nodes[None, :] ** ks[:, None]
        res = s - vander @ mults
        top = float(np.max(nodes))
        # entries below tol * top stay unresolved; their sums are bounded by
        # count_bound * (tol * top)^k
        allowance = np.maximum(2.0 * count_bound * (tol * top) ** ks, floor)
        if np.all(res <= allowance) and np.all(res >= -floor):
            keep = nodes >= tol * top
            return sorted(np.repeat(nodes[keep], mults[keep].astype(int)).tolist(),
                          reverse=True)
    raise RecoveryFailure("no Hankel-pencil rank gave a consistent structure")


def identify_equivalent(p: ColumnList, q: ColumnList, k_max: int, tol: float) -> bool:
    """True iff two column lists are signed-permutation equivalent.

    Runs a necessary screen first: for each row, the power sums of the entry
    moduli for k = 3..k_max must agree; only then is the exact matching
    attempted.  The moduli are divided by the largest one (when it exceeds
    1), so every power is at most 1 and matched entries within ``tol`` move
    each sum by at most k_max * count * tol.
    """
    if p.dim != q.dim:
        raise DimensionMismatch("column lists live in different dimensions")
    k_max = whole_number(k_max, "k_max", 3)
    if not tol >= 0.0:
        raise DomainError(f"tol must be >= 0, got {tol}")
    if p.count != q.count:
        return False
    if p.count:
        a = np.abs(np.stack([p.columns, q.columns]))
        a /= max(1.0, a.max())
        # shape (2, rows, k_max - 2)
        sums = np.sum(a[..., None] ** np.arange(3, k_max + 1), axis=2)
        slack = 4.0 * k_max * p.count * tol + 1e-12
        if np.max(np.abs(sums[0] - sums[1])) > slack:
            return False
    return signed_permutation_equal(p, q, tol)
