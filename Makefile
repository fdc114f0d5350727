# Developer entry points. `make test` is the tier-1 verification the CI
# runs; `make bench` regenerates every figure table under results/.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-nn test-engine test-recovery test-dist test-sanitize test-obs test-serve serve-smoke serve-mt-smoke bench bench-smoke bench-gate bench-wallclock bench-e2e bench-e2e-smoke lint typecheck docs-check analyze

test:
	$(PYTHON) -m pytest -x -q

# The dense net's bit pins on their own: golden training trajectories
# (DLRM, TransE, GraphSage, GAT; untraced and traced), the gradient
# path's scatter kernel, every autograd op (an inner-dimension-1 product
# ≡ np.matmul), sparse message passing (GAT's one-node attention scores
# ≡ the four nodes they replaced, signs of zero included), the vectorized
# paths ≡ their reference loops, the models, the neighbour sampler
# (the array layer ≡ numpy's rng.choice stream, the sampled-graph CRCs,
# every hop's frontier, CSR and rank groups ≡ the np.unique oracle, rank
# groups past the uint8 and uint16 sort boundaries, and a batch's bytes
# per sampled edge), the weighted draw the datasets are generated with (≡ numpy's
# weighted rng.choice, integers and generator state, and the CTR, KG and
# graph CRCs: the graph's hub edges and every training batch come from
# it), the KG tails' one-call draw (≡ the per-triple loop, state
# included, rejected word and one-member clusters too), and the row
# optimizers' key -> slot map (≡ a dict, saved state
# byte for byte) — so a change that moves one float bit of training, or
# one sampled edge or drawn key, fails attributably.
test-nn:
	$(PYTHON) -m pytest tests/test_golden_trajectories.py tests/test_gradient_path.py tests/test_tensor.py tests/test_sparse_message_passing.py tests/test_vectorized_equivalence.py tests/test_models.py tests/test_sampling_metrics.py tests/test_sampled_blocks.py tests/test_categorical_draws.py tests/test_row_arena.py -q

# The FASTER/MLKV engine's suites on their own: the hash index (walked ≡
# array probes, remembered lookups, swings ≡ looped upserts), the
# engines' array paths ≡ the per-key loop at both ends of a batch's size,
# one index probe per Put or look-ahead batch, the staged-copy ledger,
# MLKV's protocol and look-ahead, and the look-ahead clamp — so an engine
# regression is attributable at a glance.
test-engine:
	$(PYTHON) -m pytest tests/test_faster_index.py tests/test_small_batches.py tests/test_batch_native.py tests/test_staged_ledger.py tests/test_mlkv.py tests/test_lookahead_clamp.py -q

# Cross-layer observability suite: the read-only metrics registry (it
# reads the owners' stats at export time), the dual-clock tracer and its
# ledger, and the two golden traces — one served request stream
# (through replication failover) and one DLRM training run (through
# look-ahead and a disk-spilling log) each → one causally-connected span
# tree from the loop down to device I/O, with tracing changing nothing
# the run computes.
test-obs:
	$(PYTHON) -m pytest tests/test_obs_metrics.py tests/test_obs_trace.py -q

# Crash-injection / durability suite on its own, so recovery flakes are
# attributable to recovery code and not the wider test run.
test-recovery:
	$(PYTHON) -m pytest tests/test_recovery.py -q

# Parameter-server distributed training on its own: convergence
# equivalence, cross-worker staleness, and worker/replica fault
# injection — isolated so a distributed flake is attributable.
test-dist:
	$(PYTHON) -m pytest tests/test_distributed.py tests/test_partition_ddp.py -q

# The serving tier's tests on their own: the server, cache and batcher,
# the loop and its batch verbs, the schedule pins (a CRC of every
# request's user, key, arrival and completion, and whole reports), the
# tenants, and the two model tests — the closed-loop pool's sorted run ≡
# the heap it replaced, and the admission cache's batch verbs ≡ the
# per-key verbs — so a serving regression is attributable at a glance.
test-serve:
	$(PYTHON) -m pytest tests/test_serve.py tests/test_serving_loop.py tests/test_serving_schedule.py tests/test_serving_batch_verbs.py tests/test_tenancy.py tests/test_closed_loop_model.py tests/test_admission_cache_model.py -q

# Boot an EmbeddingServer from a tiny cloud checkpoint and drive 1k
# requests through the coalescing load generator; asserts score parity
# and the p99 SLO, so a serving regression fails fast and attributably.
serve-smoke:
	$(PYTHON) examples/serving_quickstart.py --requests 1000

# Two tenants on one shared sharded store: a flash crowd on the batch
# tenant sheds it while the interactive tenant's SLO holds, and the
# autoscaler splits a shard live — the decision log prints so the
# split is visible.  Asserts isolation + zero lost requests.
serve-mt-smoke:
	$(PYTHON) examples/multitenant_quickstart.py

# Benches write BENCH_*.json and results/ under benchmarks/.out
# (git-ignored) unless given --bench-root; bench, bench-gate and
# bench-wallclock refresh the committed files at the repository root on
# purpose.  `make test` collects the same benches and leaves them alone.
bench:
	$(PYTHON) -m pytest benchmarks/ -q --bench-root=.

bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_fig10_ycsb.py benchmarks/test_sharded_batched.py benchmarks/test_replicated.py -q

# Real-time (wall-clock) hot-path bench on its own: vectorized
# gather/scatter vs the per-row reference loops, arena optimizers, the
# router's array verb, the out-of-core engine path, the dense nets and
# the serving loop.  Emits BENCH_wallclock.json tagged clock="wall" so the gate applies the
# wider wall tolerance to it.
bench-wallclock:
	$(PYTHON) -m pytest benchmarks/test_wallclock.py -q --bench-root=.

# Perf-trajectory gate: snapshot the committed BENCH_*.json baselines,
# re-run every BENCH-emitting bench (fresh files land at the repo root),
# and fail on any key metric >30% worse than its baseline.  Sim-clock
# numbers are deterministic; the wall-clock bench is tagged
# clock="wall" in its payload and gated at the wider --wall-tolerance
# (machine noise is real there).  The .gate-start marker keeps the gate
# honest: a committed baseline the run did not re-emit is reported as
# "not gated" instead of self-comparing as "ok".
bench-gate:
	rm -rf results/baselines && mkdir -p results/baselines
	cp BENCH_*.json results/baselines/
	touch results/baselines/.gate-start
	$(PYTHON) -m pytest benchmarks/test_sharded_batched.py benchmarks/test_serving.py benchmarks/test_replicated.py benchmarks/test_dist_scaling.py benchmarks/test_wallclock.py benchmarks/test_obs_overhead.py benchmarks/test_multitenant.py -q --bench-root=.
	$(PYTHON) benchmarks/compare.py --baseline results/baselines --fresh . --tolerance 0.30 --wall-tolerance 0.60 --since results/baselines/.gate-start

# The repository benchmark (BENCHMARK.json, benchmarks/e2e/README.md):
# four whole workloads end to end, ~2 min.  bench-e2e-smoke is its
# seconds-long form for CI — six ops per workload on scaled-down inputs,
# untraced and traced — and fails on a wrong result, a failed op, a
# trace whose spans cover under 95% of a training step, or an engine
# back on the per-key loop (kv.py_calls_per_key over its ceiling)
# (check_e2e.py; run.py itself always exits 0).
bench-e2e:
	python3 benchmarks/e2e/run.py

bench-e2e-smoke:
	python3 benchmarks/e2e/run.py --quick --trace 1 | $(PYTHON) benchmarks/check_e2e.py

# Router, replication + distributed suites once more under the runtime
# invariant sanitizer (repro.analysis.sanitize): every protocol
# transition is checked live, so a lost update or stale-read bug fails
# loudly with an event trace instead of as a silent convergence drift.
# The router suite is here because every replicated read and write —
# including the live split of a lagging group — goes through it; the
# chaos-serving and tenancy suites because their replica kills, revives
# and slowed replicas act on the replica groups directly, mid-run; the
# array-verb suite rides along for its router and replica-group tests,
# the store-contract suite for what every composition answers, and the
# look-ahead clamp and checkpoint suites so that staging (training, a
# resumed run, the serving prefetcher over a router) runs checked too,
# with the staged-copy ledger's model test (its arrays ≡ the dict-and-deque
# reference, inside a store too) beside them; the hash index suite for
# the long lookups it remembers until a key takes or leaves a slot; and
# the small-batch suite for the router's list fan-out and the engines'
# small array reads; and the replica groups' model test (bare RF-2/3
# groups of FASTER and MLKV and a router of groups against a dict,
# through every store verb, fail / revive / slow and checkpoint ->
# restore), so the sanitizer's one-route check — a read goes to a live
# replica and every live replica has lag 0 — sees every fault sequence
# the machine draws.
test-sanitize:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest tests/test_sharded.py tests/test_replication.py tests/test_distributed.py tests/test_analysis_sanitize.py tests/test_array_verbs.py tests/test_store_contract.py tests/test_lookahead_clamp.py tests/test_lookahead_checkpoint.py tests/test_staged_ledger.py tests/test_faster_index.py tests/test_small_batches.py tests/test_chaos_serving.py tests/test_tenancy.py tests/test_replica_group_model.py -q

# Prefer ruff (fast, wider net) when present; fall back to pyflakes,
# then to the always-available compileall syntax check.  The repo's own
# AST linter (REP001-REP009: simulated-clock purity, KV contract
# completeness, storage layering, no swallowed exceptions, no set-order
# iteration, instrumentation-through-repro.obs, public docstrings on
# the serving/storage surfaces, one sort-based dedupe, no unused
# import — so the tree holds that even where ruff and pyflakes are
# not installed) always runs — it has no third-party dependencies — and so does the docs checker (intra-repo markdown
# links, make targets and CI jobs named in the docs must exist).
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	elif $(PYTHON) -c "import pyflakes" >/dev/null 2>&1; then \
		$(PYTHON) -m pyflakes src tests benchmarks examples; \
	else \
		echo "ruff/pyflakes not installed; compileall check only"; \
	fi
	$(PYTHON) -m repro.analysis.lint src tests benchmarks examples
	$(PYTHON) -m repro.analysis.doccheck

# Docs validation on its own (also part of `make lint`): every
# intra-repo markdown link resolves, and every make target / CI job a
# doc mentions actually exists.
docs-check:
	$(PYTHON) -m repro.analysis.doccheck

# Strict typing on the contract surfaces (mypy.ini scopes the strict
# flags to repro.kv.api / repro.device.clock / repro.analysis).  Skips
# gracefully when mypy is not installed so the target is safe anywhere.
typecheck:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro/kv/api.py src/repro/device/clock.py src/repro/analysis; \
	else \
		echo "mypy not installed; skipping typecheck"; \
	fi

# The full static gate CI's analyze job runs: lint (incl. the repo
# linter) + typecheck.
analyze: lint typecheck
