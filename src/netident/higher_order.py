"""Networks whose nodes carry their own linear dynamics.

Per-node dynamics (A, B, C, E, K) and a network weight matrix X combine
into the block system with state matrix ``I (x) A + X (x) EK``, input
matrix ``M (x) B`` and output matrix ``N (x) C``. Expanding a power of
the state matrix over words in {I (x) A, X (x) EK} shows that the lifted
Markov parameters are mixtures

    sum_i  (N X^i M) (x) R_{k,i},

where the R tables depend on the node dynamics only and the top
coefficient at order k is ``C (EK)^k B``. As long as those coupling
products stay nonzero, the mixture is triangular and the base network's
Markov parameters can be peeled out order by order, after which the
plain reconstruction applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Iterator

import numpy as np

from .errors import (
    DeconvolutionBlockedError,
    InconsistentDataError,
    InputError,
)
from .graph_core import selection_matrix
from .netsim import MarkovSequence, WeightMatrix, _check_finite, _markov_blocks

__all__ = [
    "NodeDynamics",
    "CouplingReport",
    "coupling_condition",
    "lifted_markov",
    "deconvolve",
]

# A coupling product at most this times its norm scale counts as zero.
COUPLING_TOL = 1e-10
# Largest relative mismatch between two deconvolved copies of one block.
RATIO_TOL = 1e-6
# Highest order coupling_condition checks. No lower cap is sound: the orders
# where C (EK)^k B vanishes are the zeros of a linear recurrence (Skolem's problem).
COUPLING_MAX_ORDER = 10**5


@dataclass(frozen=True, eq=False)
class NodeDynamics:
    """Local dynamics shared by every node: state A, input B, output C,
    coupling input E and coupling output K."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    E: np.ndarray
    K: np.ndarray

    def __post_init__(self):
        mats = {}
        for name in ("A", "B", "C", "E", "K"):
            mat = np.array(getattr(self, name), dtype=float)
            if mat.ndim != 2:
                raise InputError(f"{name} must be a 2-d matrix, got ndim={mat.ndim}")
            _check_finite(mat, name)
            mat.setflags(write=False)
            mats[name] = mat
            object.__setattr__(self, name, mat)
        q = mats["A"].shape[0]
        if mats["A"].shape != (q, q) or q < 1:
            raise InputError(f"A must be square and non-empty, got {mats['A'].shape}")
        if mats["B"].shape[0] != q:
            raise InputError(f"B must have {q} rows, got {mats['B'].shape}")
        if mats["C"].shape[1] != q:
            raise InputError(f"C must have {q} columns, got {mats['C'].shape}")
        if mats["E"].shape[0] != q:
            raise InputError(f"E must have {q} rows, got {mats['E'].shape}")
        s = mats["E"].shape[1]
        if mats["K"].shape != (s, q):
            raise InputError(
                f"K must have shape ({s},{q}) to match E and A, got {mats['K'].shape}"
            )

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]

    @property
    def output_dim(self) -> int:
        return self.C.shape[0]

    @cached_property
    def coupling(self) -> np.ndarray:
        """The q x q product E @ K entering the lifted state matrix."""
        return self.E @ self.K

    def to_json(self) -> dict:
        return {name: getattr(self, name).tolist() for name in "ABCEK"}

    @classmethod
    def from_json(cls, obj: dict) -> "NodeDynamics":
        try:
            return cls(**{name: np.asarray(obj[name], dtype=float) for name in "ABCEK"})
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad node-dynamics JSON: {exc}") from None


@dataclass(frozen=True)
class CouplingReport:
    """Finite-horizon check of the coupling products C (EK)^k B."""

    verified_up_to: int
    first_failure: int | None
    note: ClassVar[str] = (
        "finite-horizon verification only: orders beyond the checked range "
        "are not decided"
    )

    @property
    def ok(self) -> bool:
        return self.first_failure is None

    def to_json(self) -> dict:
        return {
            "verified_up_to": self.verified_up_to,
            "first_failure": self.first_failure,
            "ok": self.ok,
            "note": self.note,
        }


def _vanishing_couplings(dyn: NodeDynamics) -> Iterator[np.ndarray]:
    """For k = 0, 1, 2, ...: which entries of C (EK)^k B count as zero.

    An entry vanishes when it is at most ``COUPLING_TOL`` times
    ``norm(C) norm(B) norm((EK)^k)``. The test is scale-invariant, so the
    power is divided by its largest entry at every step and stays inside
    float64 range however large or small EK is. A nilpotent EK reaches
    the exact zero power, every entry of whose product vanishes.
    """
    tol = COUPLING_TOL * float(np.linalg.norm(dyn.C)) * float(np.linalg.norm(dyn.B))
    power = np.eye(dyn.state_dim)
    while True:
        yield np.abs(dyn.C @ power @ dyn.B) <= tol * np.linalg.norm(power)
        power = dyn.coupling @ power
        power /= np.abs(power).max() or 1.0


def coupling_condition(dyn: NodeDynamics, k_max: int | None = None) -> CouplingReport:
    """Check C (EK)^k B != 0 for k = 0..k_max (default 2q).

    "Nonzero" is relative to the factors' own scale: the max-abs entry
    must exceed ``COUPLING_TOL`` times their norm product, so a power of
    two on C or B changes no verdict and a zero C or B fails at order 0.
    Reports the first failing order, if any; refuses ``k_max`` above ``COUPLING_MAX_ORDER``.
    """
    if k_max is None:
        k_max = 2 * dyn.state_dim
    if k_max < 0:
        raise InputError(f"k_max must be >= 0, got {k_max}")
    if k_max > COUPLING_MAX_ORDER:
        raise InputError("k_max must be at most COUPLING_MAX_ORDER = "
                         f"{COUPLING_MAX_ORDER}, got {k_max}")
    for k, vanish in zip(range(k_max + 1), _vanishing_couplings(dyn)):
        if vanish.all():
            return CouplingReport(verified_up_to=k - 1, first_failure=k)
    return CouplingReport(verified_up_to=k_max, first_failure=None)


def lifted_markov(
    x: WeightMatrix,
    dyn: NodeDynamics,
    v_in: Iterable[int],
    v_out: Iterable[int],
    order: int,
) -> MarkovSequence:
    """Markov parameters of the lifted block system.

    The block system has state matrix ``I (x) A + X (x) EK``, input
    matrix ``M (x) B`` and output matrix ``N (x) C``, where M and N select
    the input and output nodes. ``data`` has shape
    ``(order+1, t*|v_out|, r*|v_in|)``: per output node a band of t rows,
    per input node a band of r columns.
    """
    v_in = x.graph.check_nodes(v_in)
    v_out = x.graph.check_nodes(v_out)
    if order < 0:
        raise InputError(f"order must be >= 0, got {order}")
    n = x.graph.n
    state = np.kron(np.eye(n), dyn.A) + np.kron(x.entries, dyn.coupling)
    cur = np.kron(selection_matrix(n, v_in), dyn.B)
    out = np.kron(selection_matrix(n, v_out).T, dyn.C)
    data = _markov_blocks(order, out.shape[0], cur.shape[1])
    for k in range(order + 1 if data.size else 0):  # empty blocks need no powers
        data[k] = out @ cur
        if k < order:
            cur = state @ cur
    return MarkovSequence._built(v_in, v_out, data)


def _mixing_tables(dyn: NodeDynamics, order: int) -> np.ndarray:
    """R[k, i] = C G_{k,i} B where G sums all k-letter words with i
    coupling letters; G recursion: G_{k,i} = A G_{k-1,i} + EK G_{k-1,i-1}.

    Shape ``(order+1, order+1, t, r)``; entries with i > k are zero.
    The words are not rescaled, so a growing coupling can overflow
    float64 at high order; every entry from then on may be inf or nan,
    and :func:`deconvolve` reports the first such order, so the overflow
    raises no warning here.
    """
    q = dyn.state_dim
    words = np.zeros((order + 1, order + 1, q, q))
    words[0, 0] = np.eye(q)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, order + 1):
            words[k, :k] += dyn.A @ words[k - 1, :k]
            words[k, 1 : k + 1] += dyn.coupling @ words[k - 1, :k]
        return dyn.C @ words @ dyn.B


def deconvolve(
    lifted: MarkovSequence,
    dyn: NodeDynamics,
) -> MarkovSequence:
    """Peel base-network Markov parameters out of lifted ones.

    At each order k the known lower-order contributions are subtracted,
    leaving a Kronecker product of the unknown base block with
    ``C (EK)^k B``; dividing by that product's largest entry recovers the
    block, and a few other well-sized entries are cross-checked against
    it within rounding of that order's data (a zero block leaves a
    residual of rounding alone). Every check is relative to the data's own
    scale: lifted data times 2^j gives blocks times exactly 2^j, and C or
    B times 2^j changes nothing. The residuals of all orders are held on
    one 5-d view ``grids[k, i, a, j, b]`` (output node i, output channel
    a, input node j, input channel b): once the block of order k is known,
    its term is subtracted from every higher order in one broadcast outer
    product, with the same products as ``np.kron`` but without forming the
    Kronecker matrix. Each order still takes its subtractions in ascending
    order, the whole peel makes O(K) numpy calls, and the blocks fill one
    ``(K+1, n_out, n_in)`` array. Raises
    DeconvolutionBlockedError at the first order whose coupling product
    is zero by the test of :func:`coupling_condition` or whose mixing
    table overflows float64, and InconsistentDataError when the data is
    not a Kronecker mixture.

    Conditioning caveat: the recoverable signal at order k sits a factor
    ``(norm(EK)/norm(A))**k`` below the data magnitude, so couplings much
    weaker than the local state matrix lose precision quickly even
    though the peel is exact in exact arithmetic.
    """
    n_in, n_out = len(lifted.v_in), len(lifted.v_out)
    t, r = dyn.output_dim, dyn.input_dim
    expected = (t * n_out, r * n_in)
    if lifted.data.shape[1:] != expected:
        raise InputError(
            f"lifted blocks have shape {lifted.data.shape[1:]}, expected "
            f"{expected} = (t*n_out, r*n_in)"
        )

    mixing = _mixing_tables(dyn, lifted.order)
    finite = np.isfinite(mixing).all(axis=(1, 2, 3))
    stop = len(mixing) if finite.all() else int(finite.argmin())
    grids = lifted.data.reshape(len(lifted.data), n_out, t, n_in, r).copy()
    base = np.empty((len(grids), n_out, n_in))
    for k, (grid, vanish) in enumerate(zip(grids, _vanishing_couplings(dyn))):
        if k == stop:
            raise DeconvolutionBlockedError(
                f"coupling product C (EK)^{k} B overflows float64: "
                f"deconvolution blocked at order {k}",
                k=k,
            )
        top = mixing[k, k]
        # The table's unscaled (EK)^k can underflow to zero where the test does not.
        if vanish.all() or not top.any():
            raise DeconvolutionBlockedError(
                f"coupling product C (EK)^{k} B is zero within tolerance: "
                f"deconvolution blocked at order {k}",
                k=k,
            )
        alpha, beta = divmod(int(np.abs(top).argmax()), r)
        block = grid[:, alpha, :, beta] / top[alpha, beta]
        # Cross-check up to three other well-sized entries, to rounding of the order's data.
        scale = max(np.abs(lifted.data[k]).max(initial=0.0), np.abs(grid).max(initial=0.0))
        for pos in np.argsort(np.abs(top), axis=None)[::-1][1:4]:
            a2, b2 = divmod(int(pos), r)
            if vanish[a2, b2]:
                break
            other = grid[:, a2, :, b2] / top[a2, b2]
            err = np.abs(other - block).max(initial=0.0)
            if err > RATIO_TOL * scale / abs(top[alpha, beta]):
                raise InconsistentDataError(
                    f"lifted data at order {k} is not a consistent Kronecker "
                    f"mixture: block ratio mismatch {err:.3e}"
                )
        base[k] = block
        # Peel this order's term out of every higher order with a finite table.
        grids[k + 1 : stop] -= block[:, None, :, None] * mixing[k + 1 : stop, k, None, :, None, :]

    return MarkovSequence._built(lifted.v_in, lifted.v_out, base)
