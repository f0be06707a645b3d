"""Affine warp-access forms — the prover's input language.

A SIMD access step assigns thread ``(i, j)`` (warp ``i``, lane ``j``,
both in ``[0, w)``) one logical matrix element.  Every deterministic
pattern in the paper is *affine modulo w* in those two indices:

=============  =========================  =========================
pattern        row(i, j)                  col(i, j)
=============  =========================  =========================
contiguous     ``i``                      ``j``
stride         ``j``                      ``i``
diagonal       ``j``                      ``(i + j) mod w``
malicious      ``j``                      ``0``
broadcast      ``i``                      ``0``
antidiagonal   ``j``                      ``(i - j) mod w``
=============  =========================  =========================

:class:`AffineAccess` captures the six coefficients of the pair of
forms ``row = ri*i + rj*j + rc (mod w)``, ``col = ci*i + cj*j + cc
(mod w)``.  Within one warp the warp index is a constant, so the lane
coefficients ``rj``/``cj`` alone decide the congestion — that is the
whole reason the prover in :mod:`repro.analysis.prover` can close the
paper's claims with gcd arithmetic instead of enumeration.

Patterns that are *not* affine (``random`` draws indices, ``pairwise``
uses a floor division) have no :class:`AffineAccess`; the prover falls
back to enumeration for them.  :func:`AffineAccess.from_grids` goes
the other way — it recognizes an affine form in a pair of concrete
``(w, w)`` index grids, which is how
:func:`repro.analysis.certificates.certify_kernel` (and the kernel
analyzer built on it) upgrades kernel steps to symbolic analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.util.validation import check_positive_int

__all__ = ["AffineAccess", "affine_pattern", "AFFINE_PATTERNS"]


#: pattern name -> ``(ri, rj, rc, ci, cj, cc)`` coefficient template.
#: ``-1`` entries are taken modulo ``w`` at construction time.
AFFINE_PATTERNS = {
    "contiguous": (1, 0, 0, 0, 1, 0),
    "stride": (0, 1, 0, 1, 0, 0),
    "diagonal": (0, 1, 0, 1, 1, 0),
    "malicious": (0, 1, 0, 0, 0, 0),
    "broadcast": (1, 0, 0, 0, 0, 0),
    "antidiagonal": (0, 1, 0, 1, -1, 0),
}


@dataclass(frozen=True)
class AffineAccess:
    """One affine access step: ``(i, j) -> A[ri*i+rj*j+rc][ci*i+cj*j+cc]``.

    All six coefficients are stored reduced modulo ``w``.  Warp ``i``'s
    lane ``j`` touches the logical element whose row/column are the two
    affine forms evaluated mod ``w``.

    Attributes
    ----------
    w:
        Matrix side / warp width / bank count.
    ri, rj, rc:
        Row-form coefficients of warp index, lane index, and constant.
    ci, cj, cc:
        Column-form coefficients.
    """

    w: int
    ri: int
    rj: int
    rc: int
    ci: int
    cj: int
    cc: int

    def __post_init__(self) -> None:
        check_positive_int(self.w, "w")
        for name in ("ri", "rj", "rc", "ci", "cj", "cc"):
            object.__setattr__(self, name, getattr(self, name) % self.w)

    # -- evaluation -----------------------------------------------------
    def rows(self, i: "npt.ArrayLike", j: "npt.ArrayLike") -> np.ndarray:
        """Row form evaluated at (broadcast) warp/lane indices."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        return (self.ri * i + self.rj * j + self.rc) % self.w

    def cols(self, i: "npt.ArrayLike", j: "npt.ArrayLike") -> np.ndarray:
        """Column form evaluated at (broadcast) warp/lane indices."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        return (self.ci * i + self.cj * j + self.cc) % self.w

    def grids(self) -> Tuple[np.ndarray, np.ndarray]:
        """The concrete ``(w, w)`` logical index grids of all ``w`` warps.

        Same convention as :mod:`repro.access.patterns`: axis 0 is the
        warp, axis 1 the lane.  This is the bridge to the enumeration
        machinery (``mapping.address(ii, jj)`` + congestion counting),
        used both by the prover's fallback and by the property tests
        that check the symbolic results against brute force.
        """
        ii, jj = np.meshgrid(
            np.arange(self.w), np.arange(self.w), indexing="ij"
        )
        return self.rows(ii, jj), self.cols(ii, jj)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_pattern(cls, name: str, w: int) -> Optional["AffineAccess"]:
        """The affine form of a named pattern, or ``None`` if not affine.

        Covers the paper's deterministic patterns plus ``broadcast``
        and the padding-killer ``antidiagonal``; ``random`` and
        ``pairwise`` return ``None`` (enumerate instead).
        """
        coeffs = AFFINE_PATTERNS.get(name.lower())
        if coeffs is None:
            return None
        ri, rj, rc, ci, cj, cc = coeffs
        return cls(w, ri, rj, rc, ci, cj, cc)

    @classmethod
    def from_grids(
        cls, ii: np.ndarray, jj: np.ndarray, w: int
    ) -> Optional["AffineAccess"]:
        """Recognize an affine form in concrete ``(w, w)`` index grids.

        Fits the six coefficients from three grid corners and verifies
        the fit over the whole grid (one vectorized comparison), so a
        false positive is impossible: either the grids *are* this
        affine access everywhere, or ``None`` is returned.
        """
        check_positive_int(w, "w")
        ii = np.asarray(ii)
        jj = np.asarray(jj)
        if ii.shape != (w, w) or jj.shape != (w, w):
            return None
        if w == 1:
            return cls(1, 0, 0, int(ii[0, 0]), 0, 0, int(jj[0, 0]))
        rc, cc = int(ii[0, 0]), int(jj[0, 0])
        ri, ci = int(ii[1, 0]) - rc, int(jj[1, 0]) - cc
        rj, cj = int(ii[0, 1]) - rc, int(jj[0, 1]) - cc
        candidate = cls(w, ri, rj, rc, ci, cj, cc)
        fit_ii, fit_jj = candidate.grids()
        if np.array_equal(fit_ii, ii % w) and np.array_equal(fit_jj, jj % w):
            return candidate
        return None

    def describe(self) -> str:
        """Human-readable form, e.g. ``row=j, col=(i+j) mod w``."""

        def form(a: int, b: int, c: int) -> str:
            terms = []
            if a:
                terms.append("i" if a == 1 else f"{a}*i")
            if b:
                terms.append("j" if b == 1 else f"{b}*j")
            if c or not terms:
                terms.append(str(c))
            body = " + ".join(terms)
            return body if len(terms) == 1 and not (a or b) else f"({body}) mod {self.w}"

        return (
            f"row={form(self.ri, self.rj, self.rc)}, "
            f"col={form(self.ci, self.cj, self.cc)}"
        )


def affine_pattern(name: str, w: int) -> Optional[AffineAccess]:
    """Module-level alias of :meth:`AffineAccess.from_pattern`."""
    return AffineAccess.from_pattern(name, w)
