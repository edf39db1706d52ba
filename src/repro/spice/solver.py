"""Modified-nodal-analysis solver for the full crossbar network.

The network modelled here is exactly the one the paper's Sec. VI derives
its behavior-level shortcut from: ``M x N`` memristor cells, ``2MN``
interconnect segments of resistance ``r`` (one wordline and one bitline
segment per cell), and ``N`` sense resistors ``R_s`` to ground.  Input
voltage sources drive the wordlines through the first wire segment.

Unknowns are the ``2MN`` internal node voltages (the input/output node of
every cell).  The memristor law ``I = (V0/R) sinh(V/V0)`` is solved by a
chord-Newton iteration on the KCL residual — the "slow, exact" path that
MNSIM's analytic model is validated against and benchmarked for
speed-up (Tables II/III, Fig. 5):

* **Round 1 is the linear solve.**  The MNA matrix at the programmed
  conductances is LU-factorized once.  Since ``cosh(0) = 1`` that same
  LU is the Jacobian at ``V = 0``, so the first round's node voltages
  are the ohmic answer, and for an ideal device the solve stops there.
* **Later rounds are chord steps.**  Each round steps ``V -= J^-1 F(V)``
  on the exact KCL residual ``F(V) = A(G_sec(V)) V - b``, with the
  *secant* conductances ``I(V)/V``
  (:meth:`~repro.tech.memristor.MemristorModel.actual_resistance`).  It
  is computed as ``V = J^-1 (b + stamp((G_jac - G_sec) v_cell))``, in
  which the wire and sense stamps cancel exactly: no per-round
  assembly, and no rounding noise from shorted lines' 1e6 S segments.
* **The Jacobian is lagged.**  It is the same four-entry cell stamp with
  the *differential* conductance ``cosh(V/V0)/R``
  (:meth:`~repro.tech.memristor.MemristorModel.differential_conductance`),
  assembled by the same :meth:`_CrossbarStructure.matrix`.  It is
  refactorized only when a step shrinks by less than
  :data:`_JACOBIAN_REFRESH_RATIO` against the previous one; the solve
  stops once ``max |step|`` falls below ``tolerance``.  The returned
  conductances are the secant ones at the final voltages, so
  ``cell_currents`` is ``I(V)`` itself.

Performance architecture (see DESIGN.md S3):

* **One-time structural assembly.**  The sparsity pattern of the MNA
  matrix depends only on the crossbar shape ``(M, N)``, never on the
  resistance values.  :class:`_CrossbarStructure` precomputes the COO
  index arrays and the COO→CSC dedup/permutation maps once per shape
  (cached module-wide), so every subsequent assembly is a handful of
  numpy array operations — no Python loops, no index recomputation.
* **Vectorized device law.**  Each round evaluates the sinh law on the
  whole ``(M, N)`` cell-voltage grid at once.
* **Factorization reuse.**  One LU serves every chord round until the
  contraction slows, and in the linear regime
  :meth:`CrossbarNetwork.solve_many` back-substitutes a whole batch of
  input vectors against a single factorization;
  :meth:`CrossbarNetwork.factorized` exposes the same helper to other
  modules (RC transient analysis reuses it).

``benchmarks/test_spice_solver_perf.py`` tracks the measured speedups in
``BENCH_spice.json`` at the repo root.

Observability (DESIGN.md S18): with :func:`repro.obs.enable` on, every
solve opens ``solver.solve`` / ``solver.solve_many`` spans with nested
``solver.assemble`` / ``solver.factorize`` child spans, and
structural-assembly cache hits,
factorizations and rounds are counted on ``repro_solver_events_total``.
Per-round step sizes are attached to the solve span only under
``repro.obs.enable(debug=True)``.  All hooks are no-ops by default — the
disabled span is a cached singleton costing ~0.1 us, held under 2% of
even the smallest benchmarked assembly.

Pickle-safety contract: :class:`CrossbarNetwork`, :class:`CrossbarSolution`
and every solver input (arrays, :class:`~repro.tech.memristor.
MemristorModel`) must stay picklable — :mod:`repro.runtime` ships them to
``ProcessPoolExecutor`` workers for parallel Monte-Carlo sampling.  Keep
state in plain attributes; no lambdas, local classes, or open handles.
(The cached structure is deliberately *not* pickled: workers rebuild it
once per shape on first use.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SolverError
from repro.obs import metrics as _obs_metrics
from repro.obs import trace as _obs_trace
from repro.tech.memristor import MemristorModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repro.faults
    # imports this module through its campaign runner)
    from repro.faults.models import FaultMask


def _count_solver_event(event: str, amount: int = 1) -> None:
    """Bump ``repro_solver_events_total{event=...}`` when obs is on.

    Gated on the trace switch so a disabled run pays a single global
    load per call — the solver sits on the hottest loop in the repo.
    """
    if _obs_trace.enabled():
        _obs_metrics.counter(
            "repro_solver_events_total",
            "Crossbar-solver events (assembly cache, factorize, rounds)",
        ).inc(amount, event=event)

# Wire resistances below this are clamped to keep the MNA matrix
# well-conditioned (an exactly-zero r would short nodes together).
_MIN_WIRE_RESISTANCE = 1e-6

_DEFAULT_TOLERANCE = 1e-10
_DEFAULT_MAX_ITERATIONS = 60

# Chord-Newton keeps its LU while each step shrinks to at most this
# fraction of the previous one; a slower contraction refactorizes the
# Jacobian at the current operating point.
_JACOBIAN_REFRESH_RATIO = 0.25


class _CrossbarStructure:
    """Precomputed sparsity pattern of the ``(M, N)`` MNA system.

    Everything here depends only on the crossbar *shape*, so one instance
    serves every :class:`CrossbarNetwork` of that shape — Monte-Carlo
    trials, wire-resistance sweeps and Newton rounds all reuse it.

    The COO entry layout is fixed: first ``4MN`` cell-stamp entries
    (``+g, +g, -g, -g`` per cell, blocked so the per-round values
    vector is one ``concatenate`` of conductance views), then the
    constant wire/sense/input entries whose values depend only on
    ``r`` / ``R_s``.  ``order``/``starts``/``indices``/``indptr`` map the
    raw COO entries onto a duplicate-summed CSC matrix via
    ``np.add.reduceat`` — the assembly hot path is pure numpy.
    """

    def __init__(self, rows: int, cols: int) -> None:
        m, n = rows, cols
        num_nodes = 2 * m * n
        wl = np.arange(m * n, dtype=np.int64).reshape(m, n)
        bl = wl + m * n

        wf = wl.ravel()
        bf = bl.ravel()
        # Cell stamps: 4 blocks of MN entries (diag, diag, off, off).
        cell_rows = np.concatenate((wf, bf, wf, bf))
        cell_cols = np.concatenate((wf, bf, bf, wf))
        # Wordline segments (i, j) -- (i, j+1): 4 entries each.
        wa, wb = wl[:, :-1].ravel(), wl[:, 1:].ravel()
        # Bitline segments (i, j) -- (i+1, j): 4 entries each.
        ba, bb = bl[:-1, :].ravel(), bl[1:, :].ravel()
        seg_a = np.concatenate((wa, ba))
        seg_b = np.concatenate((wb, bb))
        seg_rows = np.concatenate((seg_a, seg_b, seg_a, seg_b))
        seg_cols = np.concatenate((seg_a, seg_b, seg_b, seg_a))
        # Input-source and sense-resistor diagonal stamps.
        input_nodes = wl[:, 0]
        output_nodes = bl[-1, :]

        rows_idx = np.concatenate(
            (cell_rows, seg_rows, input_nodes, output_nodes)
        )
        cols_idx = np.concatenate(
            (cell_cols, seg_cols, input_nodes, output_nodes)
        )

        self.rows = m
        self.cols = n
        self.num_nodes = num_nodes
        self.num_cell_entries = 4 * m * n
        self.num_segment_entries = 4 * (seg_a.size)
        # Segment layout: the wordline segments (row-major over the
        # (m, n-1) grid) precede the bitline segments ((m-1, n)); the
        # per-line fault path indexes into these blocks.
        self.num_wl_segments = m * (n - 1)
        self.num_bl_segments = (m - 1) * n
        self.input_nodes = input_nodes
        self.output_nodes = output_nodes
        # Signs of the 4 segment blocks (+g, +g, -g, -g per segment).
        self._segment_signs = np.repeat(
            np.array([1.0, 1.0, -1.0, -1.0]), seg_a.size
        )

        # COO -> CSC with duplicate summation, precomputed: sort entries
        # by (col, row), group duplicates, and remember the maps.
        order = np.lexsort((rows_idx, cols_idx))
        sorted_rows = rows_idx[order]
        sorted_cols = cols_idx[order]
        boundary = np.empty(order.size, dtype=bool)
        boundary[0] = True
        np.logical_or(
            sorted_rows[1:] != sorted_rows[:-1],
            sorted_cols[1:] != sorted_cols[:-1],
            out=boundary[1:],
        )
        self.order = order
        self.starts = np.flatnonzero(boundary)
        self.csc_indices = sorted_rows[self.starts].astype(np.int32)
        self.csc_indptr = np.searchsorted(
            sorted_cols[self.starts], np.arange(num_nodes + 1)
        ).astype(np.int32)

    # ------------------------------------------------------------------
    def constant_values(
        self, wire_conductance: float, sense_conductance: float
    ) -> np.ndarray:
        """COO values of the resistance-independent tail entries."""
        return np.concatenate((
            self._segment_signs * wire_conductance,
            np.full(self.rows, wire_conductance),
            np.full(self.cols, sense_conductance),
        ))

    def wire_values(
        self,
        wl_segment_g: np.ndarray,
        bl_segment_g: np.ndarray,
        input_g: np.ndarray,
        sense_g: np.ndarray,
    ) -> np.ndarray:
        """COO tail values with *per-branch* conductances.

        The fault path uses this to drop (``g = 0``) or short whole
        word-/bit-lines without touching the sparsity structure: a
        dropped branch simply contributes nothing to the summed stamps.
        ``wl_segment_g`` is the row-major ``(rows, cols-1)`` wordline
        segment grid flattened; ``bl_segment_g`` the ``(rows-1, cols)``
        bitline one.
        """
        segments = np.concatenate((
            np.asarray(wl_segment_g, dtype=float).ravel(),
            np.asarray(bl_segment_g, dtype=float).ravel(),
        ))
        return np.concatenate((
            np.tile(segments, 4) * self._segment_signs,
            np.asarray(input_g, dtype=float),
            np.asarray(sense_g, dtype=float),
        ))

    def matrix(
        self, cell_conductances: np.ndarray, constant_tail: np.ndarray
    ) -> sp.csc_matrix:
        """Assemble the fixed-sparsity CSC conductance matrix."""
        g = cell_conductances.ravel()
        values = np.concatenate((g, g, -g, -g, constant_tail))
        data = np.add.reduceat(values[self.order], self.starts)
        return sp.csc_matrix(
            (data, self.csc_indices, self.csc_indptr),
            shape=(self.num_nodes, self.num_nodes),
        )


_STRUCTURE_CACHE: Dict[Tuple[int, int], _CrossbarStructure] = {}


def clear_structure_cache() -> int:
    """Drop the shared per-shape structure cache; returns entries freed.

    The cache is pure memoization — a structure depends only on the
    crossbar shape, so fork-inherited entries are *correct* — but it
    retains the largest sparsity pattern ever assembled.  Long-lived
    pool workers sweeping many shapes, and memory-sensitive tests, use
    this as the reset hook (fork-safety convention, DESIGN.md S20).
    """
    freed = len(_STRUCTURE_CACHE)
    _STRUCTURE_CACHE.clear()
    return freed


def _structure_for(rows: int, cols: int) -> _CrossbarStructure:
    """The shared, lazily-built structure for an ``(M, N)`` crossbar."""
    key = (rows, cols)
    structure = _STRUCTURE_CACHE.get(key)
    if structure is None:
        _count_solver_event("structure_build")
        with _obs_trace.span("solver.build_structure", rows=rows, cols=cols):
            structure = _STRUCTURE_CACHE[key] = _CrossbarStructure(
                rows, cols
            )
    else:
        _count_solver_event("structure_cache_hit")
    return structure


@dataclass
class CrossbarSolution:
    """Result of one circuit-level crossbar solve.

    Attributes
    ----------
    output_voltages:
        Voltage across each column's sense resistor, shape ``(N,)``.
    cell_voltages:
        Voltage across each memristor cell, shape ``(M, N)``.
    cell_currents:
        Current through each cell, shape ``(M, N)``.
    input_currents:
        Current delivered by each input source, shape ``(M,)``.
    total_power:
        Total power delivered by the sources, watts.
    iterations:
        Newton rounds performed, the first being the linear solve (so
        1 for ideal devices).
    converged:
        Whether the last Newton step fell below the tolerance.  Callers
        must not turn a non-converged solution into a result.
    """

    output_voltages: np.ndarray
    cell_voltages: np.ndarray
    cell_currents: np.ndarray
    input_currents: np.ndarray
    total_power: float
    iterations: int
    converged: bool


@dataclass
class CrossbarSolutionBatch:
    """Results of a multi-vector solve: one leading ``K`` axis per field.

    Produced by :meth:`CrossbarNetwork.solve_many`.  Indexing with
    ``batch[k]`` recovers the ``k``-th :class:`CrossbarSolution`; the
    stacked arrays support vectorized post-processing of whole sweeps.
    """

    output_voltages: np.ndarray  # (K, N)
    cell_voltages: np.ndarray  # (K, M, N)
    cell_currents: np.ndarray  # (K, M, N)
    input_currents: np.ndarray  # (K, M)
    total_power: np.ndarray  # (K,)
    iterations: np.ndarray  # (K,) int
    converged: np.ndarray  # (K,) bool

    def __len__(self) -> int:
        return self.output_voltages.shape[0]

    def __getitem__(self, k: int) -> CrossbarSolution:
        return CrossbarSolution(
            output_voltages=self.output_voltages[k],
            cell_voltages=self.cell_voltages[k],
            cell_currents=self.cell_currents[k],
            input_currents=self.input_currents[k],
            total_power=float(self.total_power[k]),
            iterations=int(self.iterations[k]),
            converged=bool(self.converged[k]),
        )


class CrossbarNetwork:
    """The resistor network of one crossbar, ready to solve.

    Parameters
    ----------
    resistances:
        Programmed (ideal, ohmic) cell resistances, shape ``(M, N)``.
    wire_resistance:
        Per-segment interconnect resistance ``r`` in ohms.
    sense_resistance:
        Sense resistor ``R_s`` per column in ohms.
    device:
        Optional memristor model supplying the nonlinear V-I curve; if
        ``None`` the cells are ideal ohmic resistors.
    fault_mask:
        Optional :class:`repro.faults.models.FaultMask`.  Stuck cells
        rewrite their stamp values to the device's ``r_min``/``r_max``
        (grid min/max without a device), open cells and open lines drop
        their branches from the MNA system, shorted lines collapse to
        the minimum wire resistance, and drift overlays multiply the
        programmed grid.  A mask that leaves nodes floating produces a
        singular system, surfaced as :class:`~repro.errors.SolverError`.
    """

    def __init__(
        self,
        resistances: np.ndarray,
        wire_resistance: float,
        sense_resistance: float,
        device: Optional[MemristorModel] = None,
        fault_mask: Optional["FaultMask"] = None,
    ) -> None:
        resistances = np.asarray(resistances, dtype=float)
        if resistances.ndim != 2:
            raise SolverError("resistances must be a 2-D (M x N) array")
        if np.any(resistances <= 0):
            raise SolverError("all cell resistances must be positive")
        if sense_resistance <= 0:
            raise SolverError("sense_resistance must be positive")
        if wire_resistance < 0:
            raise SolverError("wire_resistance must be non-negative")
        self.programmed_resistances = resistances
        self.rows, self.cols = resistances.shape
        self.wire_resistance = max(wire_resistance, _MIN_WIRE_RESISTANCE)
        self.sense_resistance = sense_resistance
        self.device = device
        self.fault_mask = fault_mask
        self._cell_gain: Optional[np.ndarray] = None
        if fault_mask is not None:
            if (fault_mask.rows, fault_mask.cols) != resistances.shape:
                raise SolverError(
                    f"fault mask shape ({fault_mask.rows}, "
                    f"{fault_mask.cols}) does not match the "
                    f"{self.rows}x{self.cols} crossbar"
                )
            r_on = device.r_min if device is not None else float(
                resistances.min()
            )
            r_off = device.r_max if device is not None else float(
                resistances.max()
            )
            resistances = fault_mask.apply_to_resistances(
                resistances, r_on, r_off
            )
            self._cell_gain = fault_mask.cell_conductance_gain()
            _count_solver_event("fault_mask_applied")
        self.resistances = resistances
        self._constant_tail: Optional[np.ndarray] = None

    # The per-shape structure and the constant COO tail are derived
    # state; keep them out of pickles (workers rebuild on first use).
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_constant_tail"] = None
        return state

    # ------------------------------------------------------------------
    # Node numbering: wordline node of cell (i, j) -> i*N + j
    #                 bitline  node of cell (i, j) -> M*N + i*N + j
    # ------------------------------------------------------------------
    def _wl(self, i: int, j: int) -> int:
        return i * self.cols + j

    def _bl(self, i: int, j: int) -> int:
        return self.rows * self.cols + i * self.cols + j

    @property
    def num_nodes(self) -> int:
        """Internal unknown node count (2MN, per Sec. VI)."""
        return 2 * self.rows * self.cols

    @property
    def structure(self) -> _CrossbarStructure:
        """The (shared, cached) sparsity structure for this shape."""
        return _structure_for(self.rows, self.cols)

    # ------------------------------------------------------------------
    def _base_conductances(self) -> np.ndarray:
        """Programmed cell conductances with open-cell branches dropped."""
        conductances = 1.0 / self.resistances
        if self._cell_gain is not None:
            conductances = conductances * self._cell_gain
        return conductances

    def _wire_tail(self) -> np.ndarray:
        """The (cached) constant COO tail, honouring any line faults."""
        if self._constant_tail is not None:
            return self._constant_tail
        structure = self.structure
        g_wire = 1.0 / self.wire_resistance
        g_sense = 1.0 / self.sense_resistance
        mask = self.fault_mask
        if mask is None or not mask.has_line_faults:
            self._constant_tail = structure.constant_values(g_wire, g_sense)
            return self._constant_tail
        g_short = 1.0 / _MIN_WIRE_RESISTANCE
        wl_seg = np.full((self.rows, max(self.cols - 1, 0)), g_wire)
        bl_seg = np.full((max(self.rows - 1, 0), self.cols), g_wire)
        sense_g = np.full(self.cols, g_sense)
        for i in mask.short_wordlines:
            wl_seg[i, :] = g_short
        for j in mask.short_bitlines:
            bl_seg[:, j] = g_short
        for i in mask.open_wordlines:
            wl_seg[i, :] = 0.0
        for j in mask.open_bitlines:
            bl_seg[:, j] = 0.0
        self._constant_tail = structure.wire_values(
            wl_seg, bl_seg, self._input_conductances(), sense_g
        )
        return self._constant_tail

    def _input_conductances(self) -> np.ndarray:
        """Per-row source-branch conductance (zero on open wordlines)."""
        g_wire = np.full(self.rows, 1.0 / self.wire_resistance)
        if self.fault_mask is not None:
            for i in self.fault_mask.open_wordlines:
                g_wire[i] = 0.0
        return g_wire

    def _matrix(self, cell_conductances: np.ndarray) -> sp.csc_matrix:
        """The CSC conductance matrix at the given cell conductances."""
        structure = self.structure
        tail = self._wire_tail()
        with _obs_trace.span("solver.assemble"):
            return structure.matrix(cell_conductances, tail)

    def _assemble(
        self, cell_conductances: np.ndarray, inputs: np.ndarray
    ):
        """Assemble the sparse conductance matrix and RHS vector."""
        return self._matrix(cell_conductances), self._rhs(inputs)

    def _rhs(self, inputs: np.ndarray) -> np.ndarray:
        """RHS vector(s): source currents into the first WL segments.

        ``inputs`` of shape ``(M,)`` gives a ``(2MN,)`` vector; a batch
        of shape ``(K, M)`` gives a ``(2MN, K)`` column-per-vector RHS.
        An open wordline's source branch is dropped, so its row drives
        no current regardless of the input value.
        """
        g_input = self._input_conductances()
        nodes = self.structure.input_nodes
        if inputs.ndim == 1:
            rhs = np.zeros(self.num_nodes)
            rhs[nodes] = g_input * inputs
        else:
            rhs = np.zeros((self.num_nodes, inputs.shape[0]))
            rhs[nodes, :] = g_input[:, np.newaxis] * inputs.T
        return rhs

    def _factorize(self, matrix: sp.csc_matrix) -> spla.SuperLU:
        """LU-factorize the MNA matrix, surfacing singularity clearly.

        The MNA system is a symmetric M-matrix, so SuperLU's symmetric
        mode with an AT+A ordering beats the default COLAMD here.
        """
        _count_solver_event("factorize")
        try:
            with _obs_trace.span("solver.factorize", nodes=self.num_nodes):
                return spla.splu(
                    matrix,
                    permc_spec="MMD_AT_PLUS_A",
                    options={"SymmetricMode": True},
                )
        except RuntimeError as exc:
            raise SolverError(
                f"singular MNA system ({self.rows}x{self.cols} crossbar, "
                f"wire_resistance={self.wire_resistance:g} ohm, "
                f"sense_resistance={self.sense_resistance:g} ohm): {exc}"
            ) from exc

    def factorized(
        self, cell_conductances: Optional[np.ndarray] = None
    ) -> Callable[[np.ndarray], np.ndarray]:
        """One-time LU factorization; returns a ``solve(rhs)`` callable.

        Factorizes the linearised MNA matrix at ``cell_conductances``
        (the programmed ``1/R`` grid when omitted) once, so callers can
        back-substitute any number of right-hand sides — batched input
        vectors here, ``C v`` products in the RC transient module.
        """
        if cell_conductances is None:
            cell_conductances = self._base_conductances()
        return self._factorize(self._matrix(cell_conductances)).solve

    # ------------------------------------------------------------------
    def _is_nonlinear(self) -> bool:
        return self.device is not None and not np.isinf(
            getattr(self.device, "nonlinearity_v0", np.inf)
        )

    def solve(
        self,
        inputs: np.ndarray,
        tolerance: float = _DEFAULT_TOLERANCE,
        max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    ) -> CrossbarSolution:
        """Solve the network for the given input voltage vector.

        Runs the linear MNA solve, then (for nonlinear devices)
        chord-Newton rounds on the KCL residual of the sinh law until
        the largest node-voltage step falls below ``tolerance`` volts or
        ``max_iterations`` rounds have run (``converged=False``).

        Raises
        ------
        SolverError
            On malformed inputs or a singular system.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (self.rows,):
            raise SolverError(
                f"inputs must have shape ({self.rows},), got {inputs.shape}"
            )

        voltages, conductances, iterations, converged = self._solve_nodes(
            inputs, tolerance, max_iterations
        )
        return self._package(voltages, conductances, inputs, iterations,
                             converged)

    def _solve_nodes(
        self,
        inputs: np.ndarray,
        tolerance: float,
        max_iterations: int,
    ) -> Tuple[np.ndarray, np.ndarray, int, bool]:
        """:meth:`_newton` inside the ``solver.solve`` span."""
        nonlinear = self._is_nonlinear()
        debug = _obs_trace.debug_enabled()
        residuals: Optional[List[float]] = [] if debug else None
        with _obs_trace.span(
            "solver.solve", rows=self.rows, cols=self.cols,
            nonlinear=nonlinear,
        ) as solve_span:
            voltages, conductances, iterations, converged = self._newton(
                self._rhs(inputs), tolerance, max_iterations, residuals
            )
            solve_span.set(iterations=iterations, converged=converged)
            if debug:
                solve_span.set(residuals=residuals)
        if _obs_trace.enabled():
            _count_solver_event("pointwise_solve")
            # Newton rounds; the event name predates the Newton solver
            # and is kept as the runtime's resource key.
            _count_solver_event("fixed_point_iterations", iterations)
        return voltages, conductances, iterations, converged

    def _newton(
        self,
        rhs: np.ndarray,
        tolerance: float,
        max_iterations: int,
        residuals: Optional[List[float]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, int, bool]:
        """Chord-Newton node solve; returns (V, G, rounds, converged).

        Round 1 factorizes ``J = A(G_jac)`` at the programmed
        conductances — the linear solve, and the Jacobian at ``V = 0``.
        Each later round takes the chord step ``V -= J^-1 F(V)`` on the
        KCL residual ``F(V) = A(G_sec(V)) V - rhs``, in the equivalent
        form ``V = J^-1 (rhs + stamp((G_jac - G_sec(V)) v_cell))``: the
        wire and sense stamps cancel exactly, so shorted lines (``1e6``
        S segments) add no rounding noise to the step.  When a step
        contracted by less than :data:`_JACOBIAN_REFRESH_RATIO`, ``J``
        is refactorized at ``G_jac = G_diff(V)``.  ``G`` is the secant
        grid at the returned ``V``; each round after the first appends
        its ``max |step|`` to ``residuals``.
        """
        jacobian = self._base_conductances()
        lu = self._factorize(self._matrix(jacobian))
        voltages = _finite(lu.solve(rhs))
        if not self._is_nonlinear():
            return voltages, jacobian, 1, True
        previous_step = float(np.max(np.abs(voltages)))
        rounds, size = 1, np.inf
        # Read after the loop (returned round count) — a B007 blind spot.
        for rounds in range(2, max_iterations + 1):  # noqa: B007
            v_cell = self._cell_voltages(voltages)
            chord = (jacobian - self._cell_law(v_cell)) * v_cell
            stepped = _finite(lu.solve(
                rhs + np.concatenate((chord.ravel(), -chord.ravel()))
            ))
            size = float(np.max(np.abs(stepped - voltages)))
            voltages = stepped
            if residuals is not None:
                residuals.append(size)
            if size < tolerance:
                break
            if size > _JACOBIAN_REFRESH_RATIO * previous_step:
                jacobian = self._cell_law(
                    self._cell_voltages(voltages), differential=True
                )
                lu = self._factorize(self._matrix(jacobian))
            previous_step = size
        secant = self._cell_law(self._cell_voltages(voltages))
        return voltages, secant, rounds, size < tolerance

    def _cell_law(
        self, v_cell: np.ndarray, differential: bool = False
    ) -> np.ndarray:
        """Cell conductances at cell voltages ``v_cell``: secant
        ``I(V)/V`` (default) or differential ``dI/dV``."""
        if differential:
            law = self.device.differential_conductance(
                self.resistances, v_cell
            )
        else:
            law = 1.0 / self.device.actual_resistance(
                self.resistances, v_cell
            )
        if self._cell_gain is not None:
            law = law * self._cell_gain
        return law

    def solve_many(
        self,
        inputs: np.ndarray,
        tolerance: float = _DEFAULT_TOLERANCE,
        max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    ) -> CrossbarSolutionBatch:
        """Solve a batch of ``K`` input vectors, shape ``(K, M)``.

        In the linear regime (no device, or an ideal ohmic one) the
        conductance matrix is independent of the inputs, so the system
        is assembled and LU-factorized **once** and all ``K`` right-hand
        sides are back-substituted against the same factorization —
        the dominant cost of a solve is paid once per batch instead of
        once per vector.

        Nonlinear devices shift every cell's operating point with the
        inputs, so each vector runs its own :meth:`solve` (one
        ``solver.solve`` span each) and the results are stacked.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.rows:
            raise SolverError(
                f"batched inputs must have shape (K, {self.rows}), "
                f"got {inputs.shape}"
            )
        k = inputs.shape[0]
        if k == 0:
            raise SolverError("batched solve needs at least one vector")

        with _obs_trace.span(
            "solver.solve_many", rows=self.rows, cols=self.cols,
            batch=k,
        ):
            if self._is_nonlinear():
                return _stack_solutions([
                    self.solve(vector, tolerance, max_iterations)
                    for vector in inputs
                ])
            conductances = self._base_conductances()
            matrix = self._matrix(conductances)
            voltages = _finite(
                self._factorize(matrix).solve(self._rhs(inputs))
            )
            return self._package_batch(
                voltages, conductances, inputs,
                np.ones(k, dtype=np.int64), np.ones(k, dtype=bool),
            )

    # ------------------------------------------------------------------
    def _cell_voltages(self, voltages: np.ndarray) -> np.ndarray:
        m, n = self.rows, self.cols
        wl = voltages[: m * n].reshape(m, n)
        bl = voltages[m * n:].reshape(m, n)
        return wl - bl

    def _package(
        self,
        voltages: np.ndarray,
        conductances: np.ndarray,
        inputs: np.ndarray,
        iterations: int,
        converged: bool,
    ) -> CrossbarSolution:
        structure = self.structure
        v_cell = self._cell_voltages(voltages)
        i_cell = v_cell * conductances
        v_out = voltages[structure.output_nodes]
        g_input = self._input_conductances()
        i_in = (inputs - voltages[structure.input_nodes]) * g_input
        total_power = float(np.dot(inputs, i_in))
        return CrossbarSolution(
            output_voltages=np.asarray(v_out, dtype=float),
            cell_voltages=v_cell,
            cell_currents=i_cell,
            input_currents=np.asarray(i_in, dtype=float),
            total_power=total_power,
            iterations=iterations,
            converged=converged,
        )

    def _package_batch(
        self,
        voltages: np.ndarray,  # (2MN, K)
        conductances: np.ndarray,  # (M, N), shared across the batch
        inputs: np.ndarray,  # (K, M)
        iterations: np.ndarray,
        converged: np.ndarray,
    ) -> CrossbarSolutionBatch:
        m, n = self.rows, self.cols
        k = inputs.shape[0]
        structure = self.structure
        wl = voltages[: m * n, :].T.reshape(k, m, n)
        bl = voltages[m * n:, :].T.reshape(k, m, n)
        v_cell = wl - bl
        i_cell = v_cell * conductances
        v_out = voltages[structure.output_nodes, :].T
        g_input = self._input_conductances()
        i_in = (inputs - voltages[structure.input_nodes, :].T) * g_input
        total_power = np.einsum("km,km->k", inputs, i_in)
        return CrossbarSolutionBatch(
            output_voltages=v_out,
            cell_voltages=v_cell,
            cell_currents=i_cell,
            input_currents=i_in,
            total_power=total_power,
            iterations=iterations,
            converged=converged,
        )


def _finite(voltages: np.ndarray) -> np.ndarray:
    """``voltages`` itself, or :class:`SolverError` if any is non-finite."""
    if not np.all(np.isfinite(voltages)):
        raise SolverError("solver produced non-finite node voltages")
    return voltages


def _stack_solutions(
    solutions: Sequence[CrossbarSolution],
) -> CrossbarSolutionBatch:
    """Stack per-vector solutions along a leading ``K`` axis."""
    return CrossbarSolutionBatch(
        output_voltages=np.stack([s.output_voltages for s in solutions]),
        cell_voltages=np.stack([s.cell_voltages for s in solutions]),
        cell_currents=np.stack([s.cell_currents for s in solutions]),
        input_currents=np.stack([s.input_currents for s in solutions]),
        total_power=np.array([s.total_power for s in solutions]),
        iterations=np.array(
            [s.iterations for s in solutions], dtype=np.int64
        ),
        converged=np.array([s.converged for s in solutions], dtype=bool),
    )


def ideal_output_voltages(
    resistances: np.ndarray,
    inputs: np.ndarray,
    sense_resistance: float,
) -> np.ndarray:
    """Ideal (r = 0, ohmic) column outputs per Eq. 1/Eq. 2 of the paper.

    For column ``k``: ``v_out = sum_j g_jk v_j / (g_s + sum_j g_jk)``,
    the exact solution of each column divider with zero wire resistance.
    ``inputs`` may be one vector ``(M,)`` or a batch ``(K, M)`` (the
    result then has a matching leading axis).
    """
    resistances = np.asarray(resistances, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if resistances.ndim != 2 or inputs.shape[-1] != resistances.shape[0]:
        raise SolverError("shape mismatch between resistances and inputs")
    conductances = 1.0 / resistances
    g_sense = 1.0 / sense_resistance
    numerator = inputs @ conductances
    denominator = g_sense + conductances.sum(axis=0)
    return numerator / denominator
