"""The schedule ledger as it ran in the data's own arithmetic, before
it moved onto the solver's scaled ints: the reference that
tests/test_ledger.py holds the int ledger against.  The body of
`_ledger` is kept as it was, but that it reads `MAXPLUS` where the
matrices once carried their semifield."""

from __future__ import annotations

from fractions import Fraction

from tropt.linalg import Matrix, _scaled_sum, _trace_product, closure_sums
from tropt.semifield import MAXPLUS, Scalar


def _ledger(spec: ScheduleSpec, result: ScheduleResult) -> dict:
    """Every intermediate quantity of the paper's closed form for theta,
    keyed for introspection: matrix powers, the feasibility gates, the
    chain and closure families, the rooted squeezes against p, q, g, h
    and their sum `theta`, then the solution family."""
    a, b = spec.start_finish, spec.start_start
    sf = MAXPLUS
    n = a.n_rows
    g, h = spec.earliest_start, spec.latest_start
    p, q = spec.window_upper, spec.window_lower
    qc, hc = q.conj(), h.conj()

    bstar = b.star()
    closures = closure_sums(a, b)
    chains = [Matrix.identity(n)] + [a @ t for t in closures]
    inter: dict = {
        "A_pow": {str(k): m for k, m in enumerate(a.powers(n)) if k >= 2},
        "B_pow": {str(k): m for k, m in enumerate(b.powers(n)) if k >= 2},
        "B_star": bstar,
        "trace_sum_B": _trace_product(b, bstar),
        "h_Bstar_g": hc @ bstar @ g,
        "chain_sums": chains,
        "closure_sums": closures,
    }

    def roots(terms: dict, shift: int) -> Scalar:
        """(+) over the keyed terms v_k of v_k^(1/(k+shift))."""
        return sf.sum(
            sf.power(v, Fraction(1, int(k) + shift)) for k, v in terms.items()
        )

    traces = {str(k): chains[k].trace() for k in range(1, n + 1)}
    # the rows h^- T_k and q^- C_k serve both the g and the p family
    h_closures = [hc @ t for t in closures]
    q_chains = [qc @ c for c in chains]
    h_closure_g = {str(k): h_closures[k] @ g for k in range(1, n)}
    q_chain_g = {str(k): q_chains[k] @ g for k in range(1, n + 1)}
    h_closure_p = {str(k): h_closures[k] @ p for k in range(n)}
    q_chain_p = {str(k): q_chains[k] @ p for k in range(n + 1)}
    sums = {
        "sum_trace_roots": roots(traces, 0),
        "sum_h_closure_g": roots(h_closure_g, 0),
        "sum_q_chain_g": roots(q_chain_g, 0),
        "sum_h_closure_p": roots(h_closure_p, 1),
        "sum_q_chain_p": roots(q_chain_p, 1),
    }
    scaled = _scaled_sum(sf.inv(result.theta), a, b)
    inter.update(
        h_closure_g=h_closure_g,
        q_chain_g=q_chain_g,
        h_closure_p=h_closure_p,
        q_chain_p=q_chain_p,
        **sums,
        theta=sf.sum(sums.values()),
        scaled_sum=scaled,
        scaled_sum_pow={
            str(k): m for k, m in enumerate(scaled.powers(n - 1)) if k >= 2
        },
        generator=result.solutions.generator,
        lower_u=result.solutions.lower,
        upper_u=result.solutions.upper,
    )
    return inter
