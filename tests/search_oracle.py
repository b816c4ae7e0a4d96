"""Test-side reference for the search suites: the paper's Algorithm 1.

:func:`algorithm1` transcribes the two-phase pseudo-code of paper
Appendix B line by line — independently of
:class:`~repro.core.search.ScheduleSearchSession` — so the suites can
check the session's trial stream against it.  It keeps the one
documented fix of the implementation: the accumulator ``alpha'`` is
reset for every explored setting.  Switch points are fractions of the
step budget in ``[0, 1]`` (the paper writes percent, ``[0, 100]``).

:func:`two_phase` adapts a ``(fraction, run)`` sampler to the
``(protocols, fractions, run)`` trial-runner signature of
:func:`~repro.core.search.run_search`.
"""

from __future__ import annotations


def two_phase(trial):
    """Trial runner that feeds ``trial`` the BSP share ``fractions[0]``."""

    def runner(protocols, fractions, run):
        assert protocols == ("bsp", "asp")
        assert fractions == (fractions[0], 1.0 - fractions[0])
        return trial(fractions[0], run)

    return runner


def algorithm1(trial, beta, max_settings, runs, target=None, bsp_runs=None):
    """Algorithm 1 of the paper; returns ``(switch, target, sessions)``.

    ``sessions`` lists every trained ``(fraction, run, accuracy, time)``
    in training order: the static-BSP target runs first (lines 2-5),
    then ``runs`` repetitions per explored setting (lines 6-16).
    """
    sessions = []
    if target is None:  # lines 2-5: A = mean accuracy of R BSP runs
        total = 0.0
        for index in range(bsp_runs):
            accuracy, time = trial(1.0, index)
            sessions.append((1.0, index, accuracy, time))
            total += accuracy
        target = total / bsp_runs
    upper, lower = 1.0, 0.0
    for _ in range(max_settings):  # lines 6-16
        setting = (upper + lower) / 2.0
        alpha = 0.0
        for index in range(runs):
            accuracy, time = trial(setting, index)
            sessions.append((setting, index, accuracy, time))
            alpha += accuracy
        alpha /= runs
        if abs(alpha - target) <= beta:  # alpha' within [A-beta, A+beta]
            upper = setting
        else:
            lower = setting
    return upper, target, sessions
