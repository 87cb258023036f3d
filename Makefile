# Developer entry points. Everything runs from the source tree (no
# install needed); CI uses the same commands against the installed
# package.

PY := PYTHONPATH=src python

.PHONY: test sanitize durations untested loc lint lint-github baseline check-baseline perf perf-compare perf-exact faults-exact perf-pairs opcodes footprint

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

# Lines under src/repro, total and per package: ROADMAP item 4's line
# target, tracked in CI beside the durations table. With BASE=<git ref>
# it prints lines at BASE (a `git archive` of it, as perf-exact does),
# lines here and the difference, so a reviewer reads the delta instead
# of computing it. No threshold: a perf_opt PR may legitimately grow.
#   make loc BASE=origin/main
loc:
	@set -e; base="$(BASE)"; \
	count() { find "$$1" -name '*.py' 2>/dev/null | xargs cat 2>/dev/null | wc -l; }; \
	if [ -n "$$base" ]; then \
		tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; git archive "$$base" src/repro | tar -x -C "$$tmp"; \
		printf '%6s %6s %6s  %s\n' base here delta "(base = $$base)"; \
	fi; \
	for d in src/repro src/repro/*/; do \
		here=$$(count $$d); \
		if [ -n "$$base" ]; then was=$$(count "$$tmp/$$d"); printf '%6d %6d %+6d  %s\n' $$was $$here $$((here - was)) $$d; \
		else printf '%6d %s\n' $$here $$d; fi; \
	done

# Gate on findings not present in the committed baseline (all passes:
# xdp-verifier, xdp-deadcode, stage-race, atomicity, hb-race, ordering,
# sim-process).
lint:
	$(PY) -m repro lint --baseline lint-baseline.json

lint-github:
	$(PY) -m repro lint --format=github

# Regenerate the committed lint baseline. Findings are deterministically
# sorted, so this is a no-op unless the tree actually changed
# (check-baseline asserts exactly that).
baseline:
	$(PY) -m repro lint --json > lint-baseline.json

check-baseline:
	$(PY) -m repro lint --json > lint-baseline.regen.json
	cmp lint-baseline.json lint-baseline.regen.json
	rm -f lint-baseline.regen.json

# The performance instrument (perf/README.md): all five workloads into
# perf/out/results.json; compare two such files with
#   make perf-compare A=before.json B=after.json
perf:
	python3 perf/run.py

perf-compare:
	python3 perf/compare.py $(A) $(B)

# The exactness gate (DESIGN §12 "What is never scheduled"): a change
# that only stops scheduling what nobody observes must leave every
# simulated number *identical* to BASE's, not merely within its bound.
# Runs the five workloads, 2 s each, on a checkout of BASE and on this
# tree and prints compare.py's whole table, but takes the verdict from
# the exact rows only: it fails when an events_per_op, sim_lat_*,
# sim_goodput_mbps or ops_ok_frac row is `worse`, or any but the first
# says `(differs)`. setup_s / wall_s / peak_rss_mb are one 2-second
# sample each — shown, never gating; alternating pairs judge those.
#   make perf-exact BASE=origin/main
perf-exact:
	@test -n "$(BASE)" || { echo "usage: make perf-exact BASE=<git ref>" >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/base"; \
	git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && python3 perf/run.py --seconds 2 --out "$$tmp/base.json" > /dev/null); \
	python3 perf/run.py --seconds 2 --out "$$tmp/head.json" > /dev/null; \
	status=0; python3 perf/compare.py "$$tmp/base.json" "$$tmp/head.json" > "$$tmp/table" || status=$$?; \
	cat "$$tmp/table"; test $$status -le 1; \
	awk '$$2 ~ /^(events_per_op|sim_lat_p50_us|sim_lat_tail_us|sim_goodput_mbps|ops_ok_frac)$$/ \
		{ rows++; if ($$6 == "worse" || ($$2 != "events_per_op" && /\(differs\)/)) { print "perf-exact: " $$0; bad = 1 } } \
		END { if (bad || !rows) exit 1; print "perf-exact: " rows " exact rows hold" }' "$$tmp/table"

# The fault plans' exactness gate: the two `repro faults` artefacts CI's
# faults job writes (every plan at seed 7, then the NIC crash and its
# recovery), both under REPRO_SANITIZE=1, on a `git archive` of BASE and on
# this tree, compared byte for byte with cmp. A change that means to move
# no simulated number must leave every injection and its instant as it was.
#   make faults-exact BASE=origin/main
faults-exact:
	@test -n "$(BASE)" || { echo "usage: make faults-exact BASE=<git ref>" >&2; exit 2; }
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/base"; \
	git archive $(BASE) | tar -x -C "$$tmp/base"; \
	for tree in "$$tmp/base" "$$PWD"; do \
		out="$$tmp/$$(test "$$tree" = "$$PWD" && echo head || echo base)"; \
		(cd "$$tree" && REPRO_SANITIZE=1 PYTHONPATH=src python -m repro faults --plan all --seed 7 --bytes 60000 --json "$$out-plans.json" > /dev/null \
			&& REPRO_SANITIZE=1 PYTHONPATH=src python -m repro faults --plan nic-crash --seed 7 --bytes 120000 --json "$$out-nic-crash.json" > /dev/null); \
	done; \
	cmp "$$tmp/base-plans.json" "$$tmp/head-plans.json"; \
	cmp "$$tmp/base-nic-crash.json" "$$tmp/head-nic-crash.json"; \
	echo "faults-exact: both artefacts match $(BASE) byte for byte"

# The judge for a host-time claim (tests/tools/pairs.py): N alternating
# pairs of `perf/run.py --workload W --seconds S` on a `git archive` of
# BASE and on this tree; each side's median and quartiles, wins of N, and
# the verdict: a gain needs >= 9/10 of the pairs *and* medians apart by
# more than BASE's own inter-quartile distance. M is an end-to-end metric
# of BENCHMARK.json. ~25 s per pair at S=5 on sparse-idle.
#   make perf-pairs BASE=origin/main W=sparse-idle M=setup_s
perf-pairs:
	@test -n "$(BASE)" -a -n "$(W)" -a -n "$(M)" || { echo "usage: make perf-pairs BASE=<git ref> W=<workload> M=<metric> [N=10] [S=5]" >&2; exit 2; }
	python3 tests/tools/pairs.py --base $(BASE) --workload $(W) --metric $(M) --pairs $(or $(N),10) --seconds $(or $(S),5)

# The judge for a host-cost change too small for perf-pairs to resolve
# (tests/tools/opcodes.py): one repetition of workload W at its TINY size
# under sys.settrace with f_trace_opcodes, on a `git archive` of BASE and
# on this tree; bytecodes per op per perf/layers.py layer and events per
# op, and the difference. Exact for a given CPython; a table to read, not
# a gate.
#   make opcodes BASE=origin/main W=large-loss
opcodes:
	@test -n "$(BASE)" || { echo "usage: make opcodes BASE=<git ref> [W=echo-small]" >&2; exit 2; }
	python3 tests/tools/opcodes.py --base $(BASE) --workload $(or $(W),echo-small)

# The memory counterpart of opcodes (tests/tools/footprint.py): one
# repetition of workload W at its benchmark size on a `git archive` of BASE
# and on this tree; VmRSS after import, set-up and the measured phase, then
# ru_maxrss, and the tracemalloc bytes each perf/layers.py layer holds after
# set-up and after the measured phase (sparse-idle: also per connection).
# A table to read, not a gate. ~20 s.
#   make footprint BASE=origin/main W=sparse-idle
footprint:
	@test -n "$(BASE)" || { echo "usage: make footprint BASE=<git ref> [W=echo-small]" >&2; exit 2; }
	python3 tests/tools/footprint.py --base $(BASE) --workload $(or $(W),echo-small)
