"""The adaptive FSP projection loop (see DESIGN.md §12).

Certificate
-----------
Each round augments the truncated generator ``A`` of the projection Ω
with one *sink* state.  All boundary outflow (the rates ``w_j`` from
``j ∈ Ω`` to in-buffer states outside Ω, which truncated assembly keeps
in the diagonal loss) is routed into the sink, and the sink returns to
a single redirect state ``z ∈ Ω``.  The sink turns the sub-stochastic
truncated system into a proper generator with a unique stationary
distribution — the quasi-stationary regularization of stationary FSP —
and its return rate is chosen at the matrix's own diagonal scale
purely for solver conditioning; the certificate does **not** depend on
it.

The bound itself is analytic, in two parts.  **Frontier layer.**  At
stationarity the flux out of Ω equals the flux back in, and all return
flux passes through the one-step-outside frontier F, so
``Φ_out = ν_c · w = Σ_{y∈F} π(y)·r_in(y)`` exactly (``ν_c`` the solved
distribution conditional on Ω, ``r_in(y)`` the state's total propensity
directly back into Ω).  With the *return-rate floor* ``ρ = min r_in``,
the mass resting on the frontier layer is at most ``Φ_out / ρ``.
**Geometric tail.**  Mass deeper than one step outside is invisible to
that identity.  Each frontier state forwards mass onward at its *away*
rate ``r_out(y) = r_total(y) − r_in(y)``, so the flux feeding layer 2
is ``Σ π(y)·r_out(y) ≈ γ·Φ_out`` with ``γ`` the influx-weighted mean
of ``r_out/r_in`` over the frontier.  Under the inward-drift condition
that makes FSP truncation meaningful at all (return rates grow, or at
least hold, with distance — true of the degradation-dominated tails
these models have), ``γ`` does not increase outward and the layer
masses decay geometrically, totalling at most
``(Φ_out/ρ) / (1 − γ)``.  The certificate reported as
``truncation_mass`` is ``safety`` (default 4) times that, with ``γ``
clipped to ``0.95`` so a non-contracting frontier yields a huge —
never infinite or negative — bound that simply forces more growth.
The bound is *exact by construction* in one case: a closed projection
has ``w ≡ 0`` and the certificate is ``0``.
``tests/fsp/test_truncation_bound.py`` checks the certified bound
against the true outside-projection mass of a full-capacity solve on
small models across coarse and fine tolerances.

Growth and pruning
------------------
After an uncertified round the projection is first *pruned* — states
are sorted by stationary mass and the smallest prefix holding at most
``prune_mass`` total probability is dropped (the initial state and the
current mode are never pruned) — then *grown* by ``expand_depth``
frontier layers, the first layer ranked by measured boundary flux.
Growing multiple layers per round matters: a ball grows one reaction
step per layer, and metastable modes can sit tens of steps from the
seed.  The previous iterate is carried onto the new projection with
:func:`repro.solvers.remap_iterate` (state-keyed, so permutation,
growth and pruning are all safe) and used as the warm start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.cme.expansion import ProjectionAssembler, initial_projection
from repro.cme.network import ReactionNetwork
from repro.cme.statespace import StateSpace
from repro.errors import ValidationError
from repro.solvers import (
    DEFAULT_DAMPING,
    SOLVER_REGISTRY,
    SolverResult,
    StopReason,
)
from repro.solvers.remap import remap_iterate
from repro.sparse.base import as_csr
from repro.telemetry import tracing
from repro.telemetry.metrics import get_registry


@dataclass(frozen=True)
class FspRound:
    """One projection round's record (the trajectory entry)."""

    round: int                 #: 1-based round number.
    states: int                #: Projection size solved this round.
    added: int                 #: States grown in *before* this round.
    pruned: int                #: States pruned *before* this round.
    iterations: int            #: Inner-solver iterations spent.
    residual: float            #: Inner solve's final residual.
    outflow_flux: float        #: Stationary boundary flux Φ_out.
    return_floor: float        #: ρ — the frontier return-rate floor.
    tail_ratio: float          #: γ — clipped layer-decay ratio.
    bound: float               #: Certified truncation bound.
    runtime_s: float           #: Wall-clock of the round.


@dataclass
class FspResult:
    """Outcome of an adaptive FSP solve.

    ``x`` is the stationary distribution *conditional on the final
    projection* (sums to 1 over ``space``); ``truncation_mass`` is the
    certified upper bound on the probability the projection cannot
    represent.  ``reason`` is one of ``"certified"`` (bound met the
    tolerance), ``"closed"`` (the projection closed — bound exactly 0),
    ``"max_rounds"``, ``"timed_out"`` or ``"solver_<stop>"`` (the inner
    solver stopped without converging).
    """

    x: np.ndarray
    space: StateSpace
    truncation_mass: float
    converged: bool
    reason: str
    rounds: list[FspRound] = field(default_factory=list)
    runtime_s: float = 0.0
    method: str = "jacobi"

    @property
    def iterations(self) -> int:
        """Total inner-solver iterations across all rounds."""
        return sum(r.iterations for r in self.rounds)

    def to_solver_result(self) -> SolverResult:
        """Present the FSP outcome through the unified solver result.

        ``residual_history`` carries one entry per round at cumulative
        iteration count, so downstream consumers (serve payloads, the
        CLI) see the round trajectory where they expect a residual
        curve.
        """
        history: list[tuple[int, float]] = []
        cum = 0
        for r in self.rounds:
            cum += r.iterations
            history.append((cum, r.residual))
        last = self.rounds[-1] if self.rounds else None
        reason = (StopReason.CONVERGED if self.converged
                  else StopReason.TIMED_OUT if self.reason == "timed_out"
                  else StopReason.DIVERGED
                  if self.reason == "solver_diverged"
                  else StopReason.MAX_ITERATIONS)
        return SolverResult(
            x=self.x, iterations=cum,
            residual=last.residual if last else float("inf"),
            stop_reason=reason, residual_history=history,
            runtime_s=self.runtime_s)

    def payload(self) -> dict:
        """The JSON-ready summary serve responses and the CLI attach."""
        return {
            "method": "fsp",
            "solver": self.method,
            "converged": self.converged,
            "reason": self.reason,
            "truncation_mass": self.truncation_mass,
            "final_states": int(self.space.size),
            "rounds": len(self.rounds),
            "iterations": self.iterations,
            "runtime_s": self.runtime_s,
            "projection_sizes": [r.states for r in self.rounds],
            "bounds": [r.bound for r in self.rounds],
            "states_added": [r.added for r in self.rounds],
            "states_pruned": [r.pruned for r in self.rounds],
        }


class AdaptiveFspController:
    """Adaptive FSP driver over one reaction network.

    Parameters
    ----------
    network:
        The reaction model.  Its species buffers still bound the
        representable space; the controller explores *within* them.
    fsp_tol:
        Target for the certified truncation bound (default ``1e-6``).
    tol, max_iterations, method, solver_options:
        The inner steady-state solve: method name from
        :data:`~repro.solvers.SOLVER_REGISTRY` plus its options
        (``damping``, ``check_interval``, ... — anything the solver's
        constructor takes).  ``jacobi`` solves are damped by
        :data:`~repro.solvers.DEFAULT_DAMPING` unless the options
        carry ``damping``.  Early rounds solve looser than ``tol`` (see
        :meth:`_round_tol`); a result is only certified or closed from
        a solve run to ``tol``.
    initial_size:
        Seed projection size (a BFS ball around the initial state).
    max_rounds:
        Projection-growth rounds before giving up uncertified.
    prune_mass:
        Total stationary mass the per-round prune may discard
        (default ``fsp_tol / 100``); ``0`` disables pruning.
    safety:
        Certificate cushion multiplier on the tail-corrected bound
        (≥ 1).
    expand_depth:
        Frontier layers grown per round.
    max_new_states:
        Cap on flux-ranked first-layer growth per round (``None`` for
        unbounded).
    max_states:
        Hard projection-size cap (overflow raises, same contract as
        enumeration).
    """

    def __init__(self, network: ReactionNetwork, *,
                 fsp_tol: float = 1e-6,
                 tol: float = 1e-8,
                 max_iterations: int = 1_000_000,
                 method: str = "jacobi",
                 solver_options: dict | None = None,
                 initial_size: int = 64,
                 max_rounds: int = 40,
                 prune_mass: float | None = None,
                 safety: float = 4.0,
                 expand_depth: int = 2,
                 max_new_states: int | None = None,
                 max_states: int = 5_000_000):
        if method not in SOLVER_REGISTRY:
            raise ValidationError(
                f"unknown method {method!r}; expected one of "
                f"{sorted(SOLVER_REGISTRY)}")
        if not (fsp_tol > 0.0):
            raise ValidationError(f"fsp_tol must be positive, got {fsp_tol}")
        if not (safety >= 1.0):
            raise ValidationError(f"safety must be >= 1, got {safety}")
        if max_rounds <= 0:
            raise ValidationError(
                f"max_rounds must be positive, got {max_rounds}")
        if prune_mass is None:
            prune_mass = fsp_tol / 100.0
        if prune_mass < 0.0:
            raise ValidationError(
                f"prune_mass must be non-negative, got {prune_mass}")
        self.network = network
        self.fsp_tol = float(fsp_tol)
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.method = method
        self.solver_options = dict(solver_options or {})
        self.initial_size = int(initial_size)
        self.max_rounds = int(max_rounds)
        self.prune_mass = float(prune_mass)
        self.safety = float(safety)
        self.expand_depth = int(expand_depth)
        self.max_new_states = max_new_states
        self.max_states = int(max_states)
        self.assembler = ProjectionAssembler(network)

    # -- the loop ------------------------------------------------------------

    def solve(self, *, time_budget_s: float | None = None,
              hooks=None, checkpointer=None) -> FspResult:
        """Run the projection loop until certified (or a budget ends).

        With a :class:`~repro.durability.Checkpointer` (signature from
        :func:`~repro.durability.network_signature`), the controller
        writes one durable snapshot per projection round (kind
        ``"fsp"``, *unconditionally* — rounds are the natural coarse
        granularity): the next round's projection, the carried iterate
        and its source projection, and the round trajectory.  A resumed
        solve re-enters the loop at the next round with the same warm
        start the uninterrupted run would have used.
        """
        if time_budget_s is not None and time_budget_s <= 0:
            raise ValidationError(
                f"time_budget_s must be positive, got {time_budget_s}")
        t0 = time.perf_counter()
        registry = get_registry()
        rounds_ctr = registry.counter(
            "fsp_rounds_total", "Adaptive FSP rounds executed")
        added_ctr = registry.counter(
            "fsp_states_added_total", "States grown into FSP projections")
        pruned_ctr = registry.counter(
            "fsp_states_pruned_total", "States pruned from FSP projections")

        space = initial_projection(self.network, size=self.initial_size)
        prev: np.ndarray | None = None
        prev_space: StateSpace | None = None
        prev_sink = 0.0
        rounds: list[FspRound] = []
        added = pruned = 0
        nu_c = np.full(space.size, 1.0 / space.size)
        bound = float("inf")
        converged = False
        reason = "max_rounds"
        start_round = 1

        if checkpointer is not None and checkpointer.resume:
            resumed = checkpointer.load_latest(kind="fsp")
            if resumed is not None:
                meta = resumed.meta
                space = StateSpace(network=self.network,
                                   states=resumed.arrays["states"])
                carried = resumed.arrays.get("prev")
                prev = None if carried is None else carried.copy()
                prev_states = resumed.arrays.get("prev_states")
                if prev_states is not None:
                    prev_space = StateSpace(network=self.network,
                                            states=prev_states)
                prev_sink = float(meta.get("prev_sink", 0.0))
                rounds = [FspRound(**rec) for rec in meta.get("rounds", [])]
                added = int(meta.get("added", 0))
                pruned = int(meta.get("pruned", 0))
                bound = float(meta.get("bound", float("inf")))
                if prev is not None and prev.size == space.size:
                    nu_c = prev.copy()
                else:
                    nu_c = np.full(space.size, 1.0 / space.size)
                start_round = int(meta["round"]) + 1

        def durable_save(r: int) -> None:
            """One snapshot per round: everything the next round reads."""
            if checkpointer is None:
                return
            arrays = {"states": space.states}
            if prev is not None and prev_space is not None:
                arrays["prev"] = prev
                arrays["prev_states"] = prev_space.states
            from dataclasses import asdict
            checkpointer.save(r, arrays, {
                "round": int(r),
                "prev_sink": float(prev_sink),
                "added": int(added),
                "pruned": int(pruned),
                "bound": float(bound),
                "rounds": [asdict(rec) for rec in rounds],
            }, kind="fsp")

        outer = tracing.span("fsp.solve", method=self.method,
                             fsp_tol=self.fsp_tol)
        with outer:
            if start_round > 1:
                outer.set_attribute("resumed_round", start_round)
            for r in range(start_round, self.max_rounds + 1):
                remaining = None
                if time_budget_s is not None:
                    remaining = time_budget_s - (time.perf_counter() - t0)
                    if remaining <= 0:
                        reason = "timed_out"
                        break
                round_t0 = time.perf_counter()
                with tracing.span("fsp.round", round=r,
                                  states=space.size) as rspan:
                    A, w = self.assembler.assemble(space)
                    has_outflow = bool(np.any(w > 0.0))
                    if has_outflow:
                        # The sink's return rate is a *conditioning*
                        # choice, not part of the certificate: keep it
                        # at the generator's own diagonal scale so the
                        # Jacobi/power iteration matrix stays balanced.
                        kappa = float(np.abs(A.diagonal()).max())
                        A_sys = self._with_sink(A, w, kappa,
                                                self._redirect_index(space))
                    else:
                        A_sys = A
                    x0 = self._warm_start(space, prev, prev_space,
                                          prev_sink, has_outflow)
                    round_tol = self._round_tol(bound)
                    # The warm start is last round's solved iterate
                    # remapped (finite, non-negative by construction),
                    # so the O(n) x0 scans are skipped on every
                    # projection round after the first.
                    result = self._inner_solve(
                        A_sys, round_tol, x0, remaining, hooks,
                        validate_x0=x0 is None)
                    iterations = result.iterations
                    stop = result.stop_reason
                    solved = stop in (StopReason.CONVERGED,
                                      StopReason.STAGNATED)
                    nu_c, sink_mass, flux, rho, gamma, bound = \
                        self._certificate(space, result, w, has_outflow)
                    if (round_tol > self.tol and solved
                            and (bound <= self.fsp_tol or not has_outflow)):
                        # A loose solve met the target, but an
                        # under-converged ν reads the bound low: carry
                        # the same system on to tol and certify (or
                        # grow) from that.
                        if time_budget_s is not None:
                            remaining = (time_budget_s
                                         - (time.perf_counter() - t0))
                        if remaining is not None and remaining <= 0:
                            stop = StopReason.TIMED_OUT
                        else:
                            result = self._inner_solve(
                                A_sys, self.tol, result.x, remaining,
                                hooks, validate_x0=False)
                            iterations += result.iterations
                            stop = result.stop_reason
                            solved = stop in (StopReason.CONVERGED,
                                              StopReason.STAGNATED)
                            nu_c, sink_mass, flux, rho, gamma, bound = \
                                self._certificate(space, result, w,
                                                  has_outflow)
                    rounds.append(FspRound(
                        round=r, states=space.size, added=added,
                        pruned=pruned, iterations=iterations,
                        residual=result.residual, outflow_flux=flux,
                        return_floor=rho, tail_ratio=gamma, bound=bound,
                        runtime_s=time.perf_counter() - round_t0))
                    rounds_ctr.inc()
                    rspan.set_attribute("bound", bound)
                    rspan.set_attribute("iterations", iterations)

                    # Stagnation is a legitimate stop throughout this
                    # stack (a slowly mixing model can sit at a residual
                    # floor above 1e-8) — only divergence and budget
                    # expiry are failures.
                    # An iteration-capped round is *rough*: its ν still
                    # guides growth, and the warm-started next round
                    # resumes where it stopped.
                    if stop is StopReason.TIMED_OUT:
                        reason = "timed_out"
                        break
                    if stop is StopReason.DIVERGED:
                        reason = "solver_diverged"
                        break
                    if not has_outflow and solved:
                        converged, reason = True, "closed"
                        break
                    if bound <= self.fsp_tol and solved:
                        converged, reason = True, "certified"
                        break
                    if r == self.max_rounds:
                        reason = "max_rounds"
                        break
                    if bound <= self.fsp_tol or not has_outflow:
                        # Bound already fine but the solve ran out of
                        # iterations: re-solve this projection from the
                        # carried iterate instead of growing.
                        prev, prev_space, prev_sink = nu_c, space, sink_mass
                        added = pruned = 0
                        durable_save(r)
                        continue

                    # Uncertified: prune the abandoned tail, grow where
                    # the boundary flux points, carry the iterate over.
                    prev, prev_space, prev_sink = nu_c, space, sink_mass
                    kept_space, kept_nu, n_pruned = self._prune(space, nu_c)
                    grown, n_added = self.assembler.grow(
                        kept_space, depth=self.expand_depth,
                        weights=kept_nu,
                        max_new_states=self.max_new_states,
                        max_states=self.max_states)
                    space, added, pruned = grown, n_added, n_pruned
                    added_ctr.inc(n_added)
                    pruned_ctr.inc(n_pruned)
                    durable_save(r)
            outer.set_attribute("rounds", len(rounds))
            outer.set_attribute("final_states", space.size)
            outer.set_attribute("truncation_mass", bound)
            outer.set_attribute("converged", converged)

        return FspResult(
            x=nu_c, space=space, truncation_mass=bound,
            converged=converged, reason=reason, rounds=rounds,
            runtime_s=time.perf_counter() - t0, method=self.method)

    # -- pieces --------------------------------------------------------------

    #: Inner tolerance of round 1, and the loosest any round solves to.
    _ROUND_TOL_CEILING = 1e-6

    def _round_tol(self, prev_bound: float) -> float:
        """The inner tolerance of a round after one that certified
        *prev_bound* (``inf`` before round 1): ``tol`` scaled by how far
        that bound sat above ``fsp_tol``, within ``[tol, 1e-6]``.  Far
        from the target, a round's ν only steers growth; near it, the
        rounds tighten toward ``tol``."""
        return max(self.tol, min(self._ROUND_TOL_CEILING,
                                 self.tol * prev_bound / self.fsp_tol))

    def _inner_solve(self, A_sys, tol: float, x0, remaining, hooks, *,
                     validate_x0: bool) -> SolverResult:
        # A looser stagnation default than the solvers' own: a
        # projection that misses the stationary support yields a
        # slowly-creeping residual that would burn the whole iteration
        # budget for digits growth will erase anyway.  Explicit
        # solver_options still win.
        opts = {"stagnation_tol": 1e-4, **self.solver_options}
        if self.method == "jacobi":
            opts.setdefault("damping", DEFAULT_DAMPING)
        solver = SOLVER_REGISTRY[self.method](
            A_sys, tol=tol, max_iterations=self.max_iterations, **opts)
        return solver.solve(x0, time_budget_s=remaining, hooks=hooks,
                            validate_x0=validate_x0)

    def _certificate(self, space: StateSpace, result: SolverResult,
                     w: np.ndarray, has_outflow: bool):
        """``(ν_c, sink mass, Φ_out, ρ, γ, bound)`` from one inner
        solve of *space*'s sink-augmented system."""
        nu = result.x[:-1] if has_outflow else result.x
        sink_mass = float(result.x[-1]) if has_outflow else 0.0
        mass = float(nu.sum())
        nu_c = (nu / mass if mass > 0.0
                else np.full(space.size, 1.0 / space.size))
        # An elementwise product and a NumPy sum, not ``w @ nu_c``: a
        # BLAS ddot wakes the BLAS thread pool, whose spinning threads
        # then halve the next round's sweep speed on a 2-CPU host.
        flux = float((w * nu_c).sum())
        if not has_outflow:
            return nu_c, sink_mass, flux, float("inf"), 0.0, 0.0
        fr = self.assembler.frontier(space, weights=nu_c)
        rho = self._return_floor(fr, w)
        gamma = self._tail_ratio(fr)
        bound = self.safety * flux / (rho * (1.0 - gamma))
        return nu_c, sink_mass, flux, rho, gamma, bound

    #: Clip on the geometric tail's layer-decay ratio γ: a frontier
    #: that does not contract gets a factor-20 tail instead of an
    #: infinite (or negative) one, so the bound stays a finite number
    #: whose size forces further growth.
    _GAMMA_CAP = 0.95

    @staticmethod
    def _return_floor(fr, w: np.ndarray) -> float:
        """ρ: the slowest direct return rate over the frontier layer."""
        positive = fr.inward_rates[fr.inward_rates > 0.0]
        if fr.size and np.all(fr.inward_rates > 0.0):
            return float(fr.inward_rates.min())
        if positive.size:
            # Some frontier states have no one-step return (they drain
            # through deeper states); floor on the slowest that do.
            return float(positive.min())
        # Degenerate: no frontier state returns directly.  Fall back to
        # the slowest escape rate so the floor stays positive.
        return float(w[w > 0.0].min())

    def _tail_ratio(self, fr) -> float:
        """γ: influx-weighted mean of away/return rate over the
        frontier — the estimated layer-to-layer decay of outside mass.
        """
        returning = fr.inward_rates > 0.0
        weight = float(fr.influx[returning].sum())
        if not returning.any() or weight <= 0.0:
            return self._GAMMA_CAP
        away = fr.total_rates[returning] - fr.inward_rates[returning]
        gamma = float((fr.influx[returning] * away
                       / fr.inward_rates[returning]).sum() / weight)
        return min(max(gamma, 0.0), self._GAMMA_CAP)

    def _redirect_index(self, space: StateSpace) -> int:
        """Where the sink re-injects mass: the model's initial state if
        the projection holds it, else state 0 (the BFS seed)."""
        idx = space.lookup(
            np.asarray(self.network.initial_state, dtype=np.int64)[None, :])
        return int(idx[0]) if idx[0] >= 0 else 0

    @staticmethod
    def _with_sink(A: sp.csr_matrix, w: np.ndarray, kappa: float,
                   redirect: int) -> sp.csr_matrix:
        """Augment the truncated generator with the certificate sink.

        The sink collects all boundary outflow (``A``'s diagonal
        already carries the matching loss) and returns to *redirect* at
        rate ``kappa``, keeping the augmented matrix a proper generator
        (columns sum to zero) with a unique stationary distribution.
        The canonical CSR arrays are written directly: the return rate
        closes row *redirect* (column ``n`` sorts last), and the sink
        row holds the positive outflow rates, then ``-kappa``.
        """
        A = as_csr(A)
        n = A.shape[0]
        cut = int(A.indptr[redirect + 1])
        gain = np.flatnonzero(w)
        indptr = np.empty(n + 2, dtype=np.int64)
        indptr[:redirect + 1] = A.indptr[:redirect + 1]
        indptr[redirect + 1:n + 1] = A.indptr[redirect + 1:] + 1
        indptr[n + 1] = indptr[n] + gain.size + 1
        indices = np.concatenate([A.indices[:cut], [n], A.indices[cut:],
                                  gain, [n]])
        data = np.concatenate([A.data[:cut], [kappa], A.data[cut:],
                               w[gain], [-kappa]])
        return as_csr(sp.csr_matrix(
            (data, indices.astype(np.int32), indptr.astype(np.int32)),
            shape=(n + 1, n + 1)))

    def _warm_start(self, space: StateSpace, prev, prev_space,
                    prev_sink: float, has_outflow: bool):
        """Remap last round's iterate onto this round's system."""
        if prev is None or prev_space is None:
            return None
        carried = remap_iterate(prev, prev_space, space)
        if not has_outflow:
            return carried
        sink = min(max(prev_sink, 0.0), 0.5)
        return np.concatenate([carried * (1.0 - sink), [sink]])

    def _prune(self, space: StateSpace, nu_c: np.ndarray
               ) -> tuple[StateSpace, np.ndarray, int]:
        """Drop the lowest-mass prefix holding ≤ ``prune_mass`` total.

        The initial state and the current mode survive any prune, and
        at least two states always remain.
        """
        n = space.size
        if self.prune_mass <= 0.0 or n <= 2:
            return space, nu_c, 0
        order = np.argsort(nu_c, kind="stable")
        cums = np.cumsum(nu_c[order])
        cut = int(np.searchsorted(cums, self.prune_mass, side="right"))
        if cut == 0:
            return space, nu_c, 0
        protected = {self._redirect_index(space), int(np.argmax(nu_c))}
        drop = np.array([i for i in order[:cut] if int(i) not in protected],
                        dtype=np.int64)
        if drop.size == 0 or n - drop.size < 2:
            return space, nu_c, 0
        keep = np.ones(n, dtype=bool)
        keep[drop] = False
        kept_space = StateSpace(network=space.network,
                                states=space.states[keep])
        kept_nu = nu_c[keep]
        total = float(kept_nu.sum())
        kept_nu = (kept_nu / total if total > 0.0
                   else np.full(kept_space.size, 1.0 / kept_space.size))
        return kept_space, kept_nu, int(drop.size)
