PYTHON ?= python
PYTHONPATH := src

.PHONY: verify test check check-deep chaos-smoke chaos chaos-overload \
	trace telemetry telemetry-smoke golden bench-smoke shapes examples \
	sweep sweep-smoke recover recover-smoke

## The full tier-1 gate: unit/integration tests, the repro.analysis
## correctness passes, and the chaos smoke episodes.
verify: test check chaos-smoke

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro check

## Whole-program gate/leak/stale-state analysis only (fast, static).
check-deep:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro check --deep

chaos-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q -m chaos_smoke

## The full fault-injection acceptance run (20 seeded episodes).
chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro chaos --seed 1 --episodes 20

## The flash-crowd + slow-disk overload episode (graceful degradation).
chaos-overload:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro overload --seed 1

## The traced overload episode: trace summary + per-request waterfall.
trace:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro trace --seed 1

## The telemetry dashboard for the overload episode (DESIGN §15):
## windowed series, scheduler introspection, SLO verdicts.
telemetry:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro top --seed 1

## CI smoke: the telemetry test battery (sampler/SLO consistency,
## byte-determinism, probe zero-perturbation).
telemetry-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q -m telemetry

## CI smoke: every workload of the repository benchmark at smoke scale,
## each run's digest checked against benchmarks/suite/expected.json.
## No wall-clock bound is asserted (CI hosts are slow and noisy).
bench-smoke:
	$(PYTHON) benchmarks/suite/run.py --smoke

## The paper's shape claims: the assertions under benchmarks/ (Fig. 2-4,
## the ablations, failover, open-loop latency, URL-table cost), run once
## each without timing; the repository benchmark suite is separate.
shapes:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks \
		--ignore=benchmarks/suite --benchmark-disable

## Run every script under examples/ (about a minute, most of it in
## reproduce_paper.py); the first nonzero exit fails the target.
examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		PYTHONPATH=$(PYTHONPATH) $(PYTHON) $$script || exit 1; \
	done

## Run the checked-in sweep spec across 4 workers (DESIGN §13); the
## merged report is byte-identical regardless of the worker count.
sweep:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro sweep \
		--spec specs/sweep_smoke.json --workers 4 --out sweeps

## CI smoke: same spec, 2 workers, fresh output root.
sweep-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro sweep \
		--spec specs/sweep_smoke.json --workers 2 --out .sweep-smoke

## Exhaustive crash-point exploration: crash the controller at every
## WAL/dispatch boundary of the scripted episode, prove each converges.
recover:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro recover --explore

## CI smoke: a bounded shard of the exploration (first 12 boundaries).
recover-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro recover --explore \
		--limit 12

## Regenerate every REPRO_UPDATE_GOLDEN fixture (metrics, recovery and
## the sweep smoke report) after a reviewed model change.
golden:
	REPRO_UPDATE_GOLDEN=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest \
		tests/integration/test_golden_metrics.py \
		tests/integration/test_recovery_golden.py \
		tests/experiments/test_sweep_golden.py -q
