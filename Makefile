# Developer entry points. Everything runs from the source tree (no
# install needed); CI uses the same commands against the installed
# package.

PY := PYTHONPATH=src python

.PHONY: test sanitize durations untested loc lint lint-github perf perf-compare perf-exact faults-exact perf-pairs opcodes footprint ties

test:
	$(PY) -m pytest -x -q

# Tier-1 under the runtime ownership sanitizer and the HB monitor: CI's
# sanitized step. One -q only (pyproject's), so the run closes with its
# "N passed in T s" line — ROADMAP wants that T under 90.
sanitize:
	REPRO_SANITIZE=1 $(PY) -m pytest -x

# Tier-1 wall time and its 20 slowest tests: the table CI uploads as the
# tier1-durations artefact.
durations:
	$(PY) -m pytest --durations=20 | sed -n '/slowest 20 durations/,$$p'

# The statements under src/repro that tier-1 never executes, per file,
# with their line numbers (tests/tools/untested.py: sys.settrace + ast,
# since coverage is not a dependency; ~2 min). A table to read when
# asking what a proof, an arm or a feature is held up by — no threshold.
# Extra pytest arguments narrow the run: make untested ARGS=tests/xdp
untested:
	PYTHONDONTWRITEBYTECODE=1 python tests/tools/untested.py $(ARGS)

# Gate: any finding of the four passes (xdp-verifier, xdp-deadcode,
# hb-race, sim-process) fails; there is no baseline.
lint:
	$(PY) -m repro lint

lint-github:
	$(PY) -m repro lint --format=github

# The performance instrument (perf/README.md): all five workloads into
# perf/out/results.json; compare two such files with
#   make perf-compare A=before.json B=after.json
perf:
	python3 perf/run.py

perf-compare:
	python3 perf/compare.py $(A) $(B)

# Every target below compares BASE=<git ref> with this tree through
# tests/tools/judge.py: one `git archive` of BASE in a temporary directory
# removed on exit (set TMPDIR if /tmp is off limits), each side run in a
# process of its own over its own perf/ and repro. W=<workload> narrows a
# tool to one of perf/'s five workloads (default: all five).
JUDGE := python3 -m tests.tools.judge

# Lines under src/repro per package (ROADMAP item 17); with BASE, at BASE too.
loc:
	@$(JUDGE) loc $(BASE)

# Gate (DESIGN §12): no simulated row of perf/compare.py worse, none but events_per_op differs.
perf-exact:
	@test -n "$(BASE)" || { echo "usage: make perf-exact BASE=<git ref>" >&2; exit 2; }
	@$(JUDGE) perf-exact $(BASE)

# Gate: CI's two sanitized `repro faults` artefacts identical byte for byte.
faults-exact:
	@test -n "$(BASE)" || { echo "usage: make faults-exact BASE=<git ref>" >&2; exit 2; }
	@$(JUDGE) faults-exact $(BASE)

# Verdict on a host-time claim from N alternating pairs (tests/tools/pairs.py).
perf-pairs:
	@test -n "$(BASE)" -a -n "$(W)" -a -n "$(M)" || { echo "usage: make perf-pairs BASE=<git ref> W=<workload> M=<metric> [N=10] [S=5]" >&2; exit 2; }
	python3 -m tests.tools.pairs --base $(BASE) --workload $(W) --metric $(M) --pairs $(or $(N),10) --seconds $(or $(S),5)

# Table: bytecodes and events per op, per layer and dispatch site (tests/tools/opcodes.py).
opcodes:
	@test -n "$(BASE)" || { echo "usage: make opcodes BASE=<git ref> [W=<workload>] [SIZE=tiny|bench]" >&2; exit 2; }
	python3 -m tests.tools.opcodes --base $(BASE) $(if $(W),--workload $(W)) --size $(or $(SIZE),tiny)

# Table: resident memory, and bytes held per layer (tests/tools/footprint.py).
footprint:
	@test -n "$(BASE)" || { echo "usage: make footprint BASE=<git ref> [W=<workload>]" >&2; exit 2; }
	python3 -m tests.tools.footprint --base $(BASE) $(if $(W),--workload $(W))

# Table: each simulated metric's envelope over tie seeds 1..K (tests/tools/ties.py).
ties:
	@test -n "$(BASE)" || { echo "usage: make ties BASE=<git ref> [W=<workload>] [K=8]" >&2; exit 2; }
	python3 -m tests.tools.ties --base $(BASE) $(if $(W),--workload $(W)) --seeds $(or $(K),8)
