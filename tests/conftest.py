import numpy as np

from sagnac_wva.engine import SchemeKind, _coupling_length, _law

CRITERION_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Repeat the acceptance pass/fail lines after the captured-output wall."""
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


def assert_grid_resolves(config, omegas):
    """Assert that the scenario's grid resolves both schemes' laws at `omegas`.

    The trapezoid on node spacing h integrates sin^2(a*p + phi) * I(p),
    a = g + psi_pre, to rounding while |a| <= pi/h - 4.25/sigma_p (ROADMAP
    direction 6's bound); past it the sum aliases.  A test that means to
    reach another refusal asserts this, so that refusing aliased grids
    leaves it standing.  A coupling that overflowed is not checked: the
    non-finite refusals own it.
    """
    p = config.probe.p_grid
    bound = np.pi / (p[1] - p[0]) - 4.25 / config.probe.sigma_p
    with np.errstate(over="ignore"):
        g = _coupling_length(config, np.asarray(omegas, dtype=float))
    for scheme in SchemeKind:
        a = np.abs(g + _law(config, scheme)[1])
        assert np.all(a[np.isfinite(a)] <= bound), (scheme, a.max(), bound)
