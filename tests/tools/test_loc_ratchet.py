"""Two packages may not grow silently: ``src/repro/sim`` holds at most
``SIM_LINES`` lines and ``src/repro/analysis`` at most ``ANALYSIS_LINES``,
counted as ``make loc`` counts them (newlines in their ``.py`` files). A
change that grows one raises its number in its own diff and says why
there; ROADMAP item 13 targets 900 for the kernel, item 8 < 2 300 for the
analysis."""

from tests.tools.judge import ROOT, lines

#: ``make loc``'s reading for src/repro/sim when the ratchet was set:
#: 1 020, less ``Store.try_put`` (its callers always fell through to
#: ``force_put``).
SIM_LINES = 1013
#: ``make loc``'s reading for src/repro/analysis when the ratchet was set:
#: 2 562, less the lint's ``--baseline`` mode (``diff_findings``,
#: ``_baseline_key``, ``load_report``).
ANALYSIS_LINES = 2505


def test_the_kernel_does_not_grow():
    sim = lines(ROOT, "src/repro/sim")
    assert sim <= SIM_LINES, "src/repro/sim has {} lines, over the ratchet's {}".format(sim, SIM_LINES)


def test_the_analysis_does_not_grow():
    analysis = lines(ROOT, "src/repro/analysis")
    assert analysis <= ANALYSIS_LINES, "src/repro/analysis has {} lines, over the ratchet's {}".format(
        analysis, ANALYSIS_LINES)
