"""Build the linearised MIP (7) from cost coefficients.

The quadratic terms ``x[t,s] * y[a,s]`` are replaced by continuous
variables ``u[t,a,s]`` with the three inequalities of Section 2.3:

* ``u <= x``, ``u <= y`` (binding when the coefficient is negative —
  ``c1`` contains the negative transfer-rebate term), and
* ``u >= x + y - 1`` (binding when the coefficient is positive).

``u`` is created only for ``(a, t)`` pairs whose coefficient in the
objective (``c1``) or the load constraint (``c3``) is non-zero, which
keeps the model far smaller than the dense ``|A| * |T| * |S|`` bound.

Array assembly
--------------

The model is emitted directly in solver form,
:class:`~repro.solver.model.StandardArrays`: every constraint family is
one vectorised block of COO triplets ``(row, column, value)``, and the
blocks become one CSR matrix.  Columns are laid out as

    ``x[t,s] | y[a,s] | u[pair,s] | m | psi[q]``

(``m`` only when ``lambda < 1``, ``psi`` only with an active latency
term) and rows as

    ``place_x[t] | place_y[a] | coloc[a,t,s] | (u <= x, u <= y,
    u >= x + y - 1)[pair,s] | load[s] | (psi_ub, psi_lb)[q] | sym[t,s]``

with pairs in row-major ``(a, t)`` order.  :func:`model_layout` sizes
the families; :meth:`QpPartitioner.estimate_model_size
<repro.qp.solver.QpPartitioner.estimate_model_size>` reads the same
sizes without assembling anything.

Sweep-level caching
-------------------

Across the points of a parameter sweep (``p``, ``lambda``) only the
objective prices change: the placement / co-location / linearisation /
load constraints depend on the instance, the sparsity pattern of
``c1``/``c3`` and the flags, not on the parameter values.  Passing a
:class:`LinearizationCache` lets :func:`build_linearized_model` detect
this and reuse the cached array skeleton (matrix, senses, right-hand
sides, bounds): a hit only re-prices the objective vector.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.costmodel.coefficients import CostCoefficients
from repro.costmodel.config import WriteAccounting
from repro.exceptions import SolverError
from repro.solver.expr import Sense
from repro.solver.model import StandardArrays


@dataclass(frozen=True)
class ModelLayout:
    """Which variables and rows model (7) has, before any assembly.

    Derived from the coefficient sparsity and the build flags alone.
    """

    num_transactions: int
    num_attributes: int
    num_sites: int
    need_pair: np.ndarray  # (|A|, |T|) bool: pairs that get u variables
    pair_attributes: np.ndarray  # (P,) attribute of each u pair
    pair_transactions: np.ndarray  # (P,) transaction of each u pair
    coloc_attributes: np.ndarray  # (C,) attribute of each read pair
    coloc_transactions: np.ndarray  # (C,) transaction of each read pair
    load_side: bool
    psi_queries: np.ndarray  # (Q,) write queries that get a psi variable
    num_symmetry: int

    def row_families(self) -> dict[str, slice]:
        """The row range of every constraint family, in row order."""
        counts = (
            ("place_x", self.num_transactions),
            ("place_y", self.num_attributes),
            ("coloc", self.coloc_attributes.size * self.num_sites),
            # (u <= x, u <= y, u >= x + y - 1) per u variable
            ("linearization", 3 * self.pair_attributes.size * self.num_sites),
            ("load", self.num_sites if self.load_side else 0),
            ("psi", 2 * self.psi_queries.size),  # (psi_ub, psi_lb)
            ("symmetry", self.num_symmetry),
        )
        families, start = {}, 0
        for name, count in counts:
            families[name] = slice(start, start + count)
            start += count
        return families

    def sizes(self) -> dict[str, int]:
        """Variable and row counts, as ``QpPartitioner.model_size``."""
        num_u = self.pair_attributes.size * self.num_sites
        num_binary = (
            (self.num_transactions + self.num_attributes) * self.num_sites
            + self.psi_queries.size
        )
        return {
            "variables": num_binary + num_u + int(self.load_side),
            "integer_variables": num_binary,
            "constraints": self.row_families()["symmetry"].stop,
            "u_variables": num_u,
        }


def model_layout(
    coefficients: CostCoefficients,
    num_sites: int,
    latency: bool = False,
    symmetry_breaking: bool = True,
) -> ModelLayout:
    """The :class:`ModelLayout` :func:`build_linearized_model` assembles
    (replication only changes the sense of the ``place_y`` rows)."""
    parameters = coefficients.parameters
    lam = parameters.load_balance_lambda
    indicators = coefficients.indicators
    num_transactions = coefficients.num_transactions

    need_pair = (coefficients.c1 != 0) | ((lam < 1.0) & (coefficients.c3 != 0))
    if latency:
        write_alpha = (
            indicators.alpha * indicators.delta[None, :]
        ) @ indicators.gamma  # (|A|, |T|)
        need_pair = need_pair | (write_alpha > 0)
    psi_queries = np.zeros(0, dtype=np.intp)
    if latency and parameters.latency_penalty > 0:
        writes = np.flatnonzero(indicators.delta > 0)
        psi_queries = writes[(indicators.alpha[:, writes] > 0).any(axis=0)]
    pair_attributes, pair_transactions = np.nonzero(need_pair)
    coloc_attributes, coloc_transactions = np.nonzero(coefficients.phi_bool)
    pinned = min(num_transactions, num_sites - 1)
    return ModelLayout(
        num_transactions=num_transactions,
        num_attributes=coefficients.num_attributes,
        num_sites=num_sites,
        need_pair=need_pair,
        pair_attributes=pair_attributes,
        pair_transactions=pair_transactions,
        coloc_attributes=coloc_attributes,
        coloc_transactions=coloc_transactions,
        load_side=lam < 1.0,
        psi_queries=psi_queries,
        num_symmetry=(
            pinned * (num_sites - 1) - pinned * (pinned - 1) // 2
            if symmetry_breaking else 0
        ),
    )


@dataclass(frozen=True)
class LinearizedModel:
    """Model (7) in array form plus the column index of every variable.

    ``u_vars[k, s]`` is the column of ``u[t,a,s]`` for the pair
    ``(t, a) = u_pairs[k]``; ``psi_vars[j]`` is the column of the latency
    indicator of query ``psi_queries[j]``.  ``rows`` maps each constraint
    family to its row range (:meth:`ModelLayout.row_families`).
    """

    model: StandardArrays
    coefficients: CostCoefficients
    num_sites: int
    x_vars: np.ndarray  # (|T|, |S|) column indices
    y_vars: np.ndarray  # (|A|, |S|) column indices
    u_pairs: np.ndarray  # (P, 2) of (transaction, attribute)
    u_vars: np.ndarray  # (P, |S|) column indices
    m_var: int | None
    psi_queries: np.ndarray  # (Q,) query indices
    psi_vars: np.ndarray  # (Q,) column indices
    rows: dict[str, slice]

    @property
    def name(self) -> str:
        return f"qp[{self.coefficients.instance.name},S={self.num_sites}]"

    def extract(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Recover boolean ``(x, y)`` matrices from a solution vector."""
        return values[self.x_vars] > 0.5, values[self.y_vars] > 0.5

    def incumbent_vector(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Encode a known solution as a warm-start vector for the solver."""
        x = np.asarray(x, dtype=bool)
        y = np.asarray(y, dtype=bool)
        values = np.zeros(self.model.num_variables)
        values[self.x_vars] = x
        values[self.y_vars] = y
        transactions, attributes = self.u_pairs.T
        values[self.u_vars] = x[transactions] & y[attributes]
        if self.m_var is not None:
            from repro.costmodel.evaluator import SolutionEvaluator

            loads = SolutionEvaluator(self.coefficients).site_loads(x, y)
            values[self.m_var] = float(loads.max())
        if self.psi_queries.size:
            self._fill_psi(values, x, y)
        return values

    def _fill_psi(self, values: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
        """``psi_q = 1`` iff a replica of an attribute ``q`` updates sits
        away from the home site of ``q``'s transaction."""
        owner = np.asarray(self.coefficients.instance.query_transaction)
        updated = self.coefficients.indicators.alpha[:, self.psi_queries] > 0
        # (Q, |S|): how many attributes q updates each site holds.
        held = updated.T.astype(np.int64) @ y.astype(np.int64)
        home = np.argmax(x, axis=1)[owner[self.psi_queries]]
        remote = held.sum(axis=1) - held[np.arange(home.size), home]
        values[self.psi_vars] = remote > 0

    def priced(self, coefficients: CostCoefficients) -> "LinearizedModel":
        """This skeleton with the objective of ``coefficients``.

        The objective is ``lambda * c1`` on ``u``, ``lambda * (c2 + c5)``
        on ``y`` (summed in that order), ``1 - lambda`` on ``m`` and the
        latency prices on ``psi``; prices that come out zero are stored
        as ``+0.0``.
        """
        lam = coefficients.parameters.load_balance_lambda
        objective = np.zeros(self.model.num_variables)
        transactions, attributes = self.u_pairs.T
        objective[self.u_vars] = _nonzero(lam * coefficients.c1[attributes, transactions])[:, None]
        y_prices = np.broadcast_to(_nonzero(lam * coefficients.c2)[:, None], self.y_vars.shape)
        if coefficients.migration is not None:
            # The migration term is linear in y, so it rides on the y
            # prices.  Prices are rebuilt on every (cached or scratch)
            # build, so the skeleton cache needs no migration-aware key.
            c5 = coefficients.migration.c5
            if c5.shape != self.y_vars.shape:
                raise SolverError(
                    f"migration block spans {c5.shape} but the model has "
                    f"{self.y_vars.shape} y variables; rebuild the block for "
                    f"this site count"
                )
            migration = lam * c5
            y_prices = np.where(migration != 0.0, y_prices + migration, y_prices)
        objective[self.y_vars] = y_prices
        if self.m_var is not None:
            objective[self.m_var] = 1.0 - lam
        if self.psi_queries.size:
            queries = coefficients.instance.queries
            frequencies = np.array([float(queries[q].frequency) for q in self.psi_queries])
            penalty = coefficients.parameters.latency_penalty
            objective[self.psi_vars] = _nonzero(lam * penalty * frequencies)
        return dataclasses.replace(
            self,
            model=dataclasses.replace(self.model, objective=objective),
            coefficients=coefficients,
        )


def _nonzero(prices: np.ndarray) -> np.ndarray:
    """``prices`` with every zero (including ``-0.0``) stored as ``+0.0``."""
    return np.where(prices != 0.0, prices, 0.0)


@dataclass
class _SkeletonEntry:
    """One cached array skeleton plus the data proving it reusable."""

    instance: object
    indicators: object
    load_side: bool
    latency_active: bool
    need_pair: np.ndarray
    c3: np.ndarray
    c4: np.ndarray
    skeleton: LinearizedModel


#: Default number of skeletons one cache retains (LRU eviction).
DEFAULT_CACHE_CAPACITY = 8


class LinearizationCache:
    """Reuses model-(7) array skeletons across sweep points.

    Keyed by ``(num_sites, allow_replication, latency,
    symmetry_breaking)``; a hit additionally requires the same instance
    and indicators (by identity), the same ``lambda < 1`` /
    latency-active regime and identical ``need_pair`` / ``c3`` / ``c4``
    arrays — everything the constraint rows are built from.  A miss
    falls back to a full build and stores a fresh entry.

    Entries live in a small LRU (``capacity`` skeletons, most recently
    used first), so one long-lived cache — e.g. inside an
    :class:`~repro.api.Advisor` serving a whole batch — can hold several
    regimes at once: alternating replicated/disjoint requests, requests
    over different instances, or different ``num_sites``, without each
    regime evicting the others.  ``capacity=0`` disables the cache
    (every build misses and nothing is retained).
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 0:
            raise SolverError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: list[tuple[tuple[int, bool, bool, bool], _SkeletonEntry]] = []
        self.hits = 0
        self.misses = 0
        #: Skeletons dropped by the LRU bound (stores beyond capacity).
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self,
        key: tuple[int, bool, bool, bool],
        coefficients: CostCoefficients,
        load_side: bool,
        latency_active: bool,
        need_pair: np.ndarray,
    ) -> _SkeletonEntry | None:
        for position, (entry_key, entry) in enumerate(self._entries):
            if (
                entry_key == key
                and entry.instance is coefficients.instance
                and entry.indicators is coefficients.indicators
                and entry.load_side == load_side
                and entry.latency_active == latency_active
                and np.array_equal(entry.need_pair, need_pair)
                and np.array_equal(entry.c3, coefficients.c3)
                and np.array_equal(entry.c4, coefficients.c4)
            ):
                if position:
                    self._entries.insert(0, self._entries.pop(position))
                self.hits += 1
                return entry
        self.misses += 1
        return None

    def store(self, key: tuple[int, bool, bool, bool], entry: _SkeletonEntry) -> None:
        if self.capacity == 0:
            return
        self._entries.insert(0, (key, entry))
        self.evictions += max(0, len(self._entries) - self.capacity)
        del self._entries[self.capacity:]

    def stats(self) -> dict[str, int]:
        """Hit/miss/evict counters as one dictionary."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


def build_linearized_model(
    coefficients: CostCoefficients,
    num_sites: int,
    allow_replication: bool = True,
    latency: bool = False,
    symmetry_breaking: bool = True,
    cache: LinearizationCache | None = None,
) -> LinearizedModel:
    """Construct the linearised model (7).

    Parameters
    ----------
    allow_replication:
        When False, ``sum_s y[a,s] == 1`` (Table 5's disjoint variant)
        instead of ``>= 1``.
    latency:
        Add Appendix A's ``psi_q`` latency variables and constraints
        (requires ``latency_penalty > 0`` in the cost parameters to have
        any effect on the objective).
    symmetry_breaking:
        Sites are homogeneous, so transaction ``t`` may be restricted to
        sites ``0..t`` without losing any solution; prunes the search
        considerably.
    cache:
        Optional :class:`LinearizationCache`: when the constraint
        skeleton matches a cached build (same instance, flags and
        coefficient sparsity — only the objective prices changed, as in
        a ``p`` or ``lambda`` sweep), the cached arrays are reused and
        only the objective is priced.
    """
    if num_sites < 1:
        raise SolverError(f"need at least one site, got {num_sites}")
    parameters = coefficients.parameters
    if parameters.write_accounting is WriteAccounting.RELEVANT_ATTRIBUTES:
        raise SolverError(
            "the linearised QP only supports the ALL_ATTRIBUTES / "
            "NO_ATTRIBUTES write accounting (Section 2.1 explains why "
            "RELEVANT_ATTRIBUTES needs |A|^2 |S| extra variables)"
        )
    layout = model_layout(coefficients, num_sites, latency, symmetry_breaking)
    latency_active = latency and parameters.latency_penalty > 0
    cache_key = (num_sites, allow_replication, latency, symmetry_breaking)
    if cache is not None:
        entry = cache.lookup(
            cache_key, coefficients, layout.load_side, latency_active, layout.need_pair
        )
        if entry is not None:
            return entry.skeleton.priced(coefficients)

    skeleton = _assemble(coefficients, layout, allow_replication)
    if cache is not None:
        cache.store(
            cache_key,
            _SkeletonEntry(
                instance=coefficients.instance,
                indicators=coefficients.indicators,
                load_side=layout.load_side,
                latency_active=latency_active,
                need_pair=layout.need_pair,
                c3=coefficients.c3,
                c4=coefficients.c4,
                skeleton=skeleton,
            ),
        )
    return skeleton.priced(coefficients)


def _assemble(
    coefficients: CostCoefficients, layout: ModelLayout, allow_replication: bool
) -> LinearizedModel:
    """The unpriced model: constraint matrix, senses, rhs and bounds.

    Row and column order are the module docstring's.  Every
    ``... >= 0`` / ``... <= 0`` row has right-hand side ``-0.0`` (the
    negated constant of its normalised form).
    """
    num_transactions = layout.num_transactions
    num_attributes = layout.num_attributes
    num_sites = layout.num_sites
    num_pairs = layout.pair_attributes.size
    num_psi = layout.psi_queries.size
    families = layout.row_families()
    sites = np.arange(num_sites)

    # --- columns -------------------------------------------------------
    x_vars = np.arange(num_transactions * num_sites).reshape(num_transactions, num_sites)
    y_vars = x_vars.size + np.arange(num_attributes * num_sites).reshape(
        num_attributes, num_sites
    )
    u_start = x_vars.size + y_vars.size
    u_vars = u_start + np.arange(num_pairs * num_sites).reshape(num_pairs, num_sites)
    m_var = u_start + u_vars.size if layout.load_side else None
    psi_start = u_start + u_vars.size + int(layout.load_side)
    psi_vars = psi_start + np.arange(num_psi)
    num_variables = psi_start + num_psi

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    values: list[np.ndarray] = []

    def emit(row: np.ndarray, col: np.ndarray, value: float | np.ndarray) -> None:
        row, col, value = np.broadcast_arrays(row, col, value)
        rows.append(row.ravel())
        cols.append(col.ravel())
        values.append(np.asarray(value, dtype=float).ravel())

    def family_rows(name: str) -> np.ndarray:
        family = families[name]
        return np.arange(family.start, family.stop)

    # --- placement: sum_s x[t,s] == 1, sum_s y[a,s] >=/== 1 -------------
    emit(family_rows("place_x")[:, None], x_vars, 1.0)
    emit(family_rows("place_y")[:, None], y_vars, 1.0)

    # --- read co-location: y[a,s] - x[t,s] >= 0 -------------------------
    coloc_rows = family_rows("coloc").reshape(-1, num_sites)
    emit(coloc_rows, y_vars[layout.coloc_attributes], 1.0)
    emit(coloc_rows, x_vars[layout.coloc_transactions], -1.0)

    # --- linearisation: u - x <= 0, u - y <= 0, u - x - y >= -1 ---------
    triple = family_rows("linearization")[::3].reshape(u_vars.shape)
    pair_x = x_vars[layout.pair_transactions]
    pair_y = y_vars[layout.pair_attributes]
    for offset in range(3):
        emit(triple + offset, u_vars, 1.0)
    emit(triple, pair_x, -1.0)
    emit(triple + 1, pair_y, -1.0)
    emit(triple + 2, pair_x, -1.0)
    emit(triple + 2, pair_y, -1.0)

    # --- max-load side: sum c3 u + sum c4 y - m <= 0 per site -----------
    if layout.load_side:
        load_rows = family_rows("load")
        c3 = coefficients.c3[layout.pair_attributes, layout.pair_transactions]
        loaded = c3 != 0.0
        emit(load_rows, u_vars[loaded], c3[loaded][:, None])
        c4 = coefficients.c4
        written = np.flatnonzero(c4 != 0.0)
        emit(load_rows, y_vars[written], c4[written][:, None])
        emit(load_rows, m_var, -1.0)

    # --- Appendix A latency ---------------------------------------------
    # n_q = sum_{a updated by q} sum_s (y[a,s] - u[t,a,s]); rows
    # psi_ub: n_q - psi >= 0 and psi_lb: n_q - M psi <= 0, M = |upd| |S|.
    if num_psi:
        psi_rows = family_rows("psi").reshape(num_psi, 2)
        updated = coefficients.indicators.alpha[:, layout.psi_queries] > 0  # (|A|, Q)
        entry_psi, entry_attribute = np.nonzero(updated.T)
        owner = np.asarray(coefficients.instance.query_transaction)
        pair_index = np.full(layout.need_pair.shape, -1)
        pair_index[layout.pair_attributes, layout.pair_transactions] = np.arange(num_pairs)
        entry_pair = pair_index[entry_attribute, owner[layout.psi_queries[entry_psi]]]
        big_m = updated.sum(axis=0).astype(float) * num_sites
        for bound, psi_coefficient in ((0, -1.0), (1, -big_m)):
            emit(psi_rows[entry_psi, bound][:, None], y_vars[entry_attribute], 1.0)
            emit(psi_rows[entry_psi, bound][:, None], u_vars[entry_pair], -1.0)
            emit(psi_rows[:, bound], psi_vars, psi_coefficient)

    # --- symmetry breaking: x[t,s] <= 0 for s > t -------------------------
    if layout.num_symmetry:
        pinned, site = np.triu_indices(num_sites, k=1)
        keep = pinned < num_transactions
        emit(family_rows("symmetry"), x_vars[pinned[keep], site[keep]], 1.0)

    num_rows = families["symmetry"].stop
    matrix = sparse.csr_matrix(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(num_rows, num_variables),
    )
    senses = (
        (Sense.EQ,) * num_transactions
        + ((Sense.GE if allow_replication else Sense.EQ),) * num_attributes
        + (Sense.GE,) * coloc_rows.size
        + (Sense.LE, Sense.LE, Sense.GE) * u_vars.size
        + (Sense.LE,) * (num_sites if layout.load_side else 0)
        + (Sense.GE, Sense.LE) * num_psi
        + (Sense.LE,) * layout.num_symmetry
    )
    rhs = np.full(num_rows, -0.0)
    rhs[families["place_x"].start:families["place_y"].stop] = 1.0
    rhs[triple + 2] = -1.0
    upper = np.ones(num_variables)
    integrality = np.zeros(num_variables, dtype=bool)
    integrality[:u_start] = True
    integrality[psi_start:] = True
    if m_var is not None:
        upper[m_var] = np.inf
    return LinearizedModel(
        model=StandardArrays(
            objective=np.zeros(num_variables),
            objective_constant=0.0,
            matrix=matrix,
            senses=senses,
            rhs=rhs,
            lower=np.zeros(num_variables),
            upper=upper,
            integrality=integrality,
        ),
        coefficients=coefficients,
        num_sites=num_sites,
        x_vars=x_vars,
        y_vars=y_vars,
        u_pairs=np.column_stack([layout.pair_transactions, layout.pair_attributes]),
        u_vars=u_vars,
        m_var=m_var,
        psi_queries=layout.psi_queries,
        psi_vars=psi_vars,
        rows=families,
    )
