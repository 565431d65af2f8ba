# Convenience targets for ccured-rs.

.PHONY: all test lint tables bench-interp bench-profile bench-opt2 bench-serve bench-synth bench-temporal bench-hierarchy bless doc examples smoke profile-smoke serve-smoke synth-smoke perfbench-smoke vm-inline stress clean

all: test

test:
	cargo test --workspace

lint:
	cargo clippy --workspace --all-targets -- -D warnings
	cargo clippy -p ccured-integration --all-targets --features property-tests -- -D warnings
	cargo fmt --check

# Quick sanity pass: cure + explain + crash-test + batch the example C
# sources, on both execution engines (vm is the default; the tree run is
# the reference-semantics cross-check).
smoke:
	cargo run -q -p ccured-cli --bin ccured -- examples/c/quickstart.c --report --run --engine vm
	cargo run -q -p ccured-cli --bin ccured -- examples/c/quickstart.c --run --engine tree
	cargo run -q -p ccured-cli --bin ccured -- explain examples/c/bad_cast.c
	cargo run -q -p ccured-cli --bin ccured -- crash-test examples/c/quickstart.c --mutants 25
	cargo run -q -p ccured-cli --bin ccured -- batch examples/c --jobs 4
	cargo run -q -p ccured-cli --bin ccured -- examples/c/seq_walk.c --report --run --counters
	cargo run -q -p ccured-cli --bin ccured -- examples/c/seq_walk.c --no-loop-opt --run --counters
	cargo run -q -p ccured-cli --bin ccured -- examples/c/quickstart.c --run --counters --temporal
	cargo run -q -p ccured-cli --bin ccured -- crash-test examples/c/quickstart.c --mutants 25 --temporal
	cargo test -q -p ccured-integration --test opt2
	$(MAKE) synth-smoke

# Hot-site profiling under both engines, then batch aggregation. Each
# profile, text and `--json`, must be identical on both engines once the
# engine's name is masked (the tree run is the cross-check). matrix.c's
# hot kept sites are untracked operands.
profile-smoke:
	sh ci/both_engines.sh cargo run -q -p ccured-cli --bin ccured -- profile examples/c/quickstart.c
	sh ci/both_engines.sh cargo run -q -p ccured-cli --bin ccured -- profile examples/c/quickstart.c --json
	sh ci/both_engines.sh cargo run -q -p ccured-cli --bin ccured -- profile examples/c/seq_walk.c --top 5
	sh ci/both_engines.sh cargo run -q -p ccured-cli --bin ccured -- profile examples/c/seq_walk.c --top 5 --json
	sh ci/both_engines.sh cargo run -q -p ccured-cli --bin ccured -- profile examples/c/matrix.c
	sh ci/both_engines.sh cargo run -q -p ccured-cli --bin ccured -- profile examples/c/matrix.c --json
	cargo run -q -p ccured-cli --bin ccured -- batch examples/c --jobs 4 --no-cache --profile

# Regenerate the pretty-printer golden files after an intentional change
# (review the diff before committing; see tests/tests/golden.rs).
bless:
	BLESS=1 cargo test -q -p ccured-integration --test golden

# Regenerate every table/figure of the paper (see EXPERIMENTS.md).
tables:
	cargo run --release -p ccured-bench --bin tables

# E13: tree-vs-VM throughput table; writes BENCH_interp.json.
bench-interp:
	cargo run --release -p ccured-bench --bin tables -- fig-interp

# E14: hot-site check profiles; writes BENCH_profile.json.
bench-profile:
	cargo run --release -p ccured-bench --bin tables -- fig-profile

# E15: loop-optimizer executed-check cost; writes BENCH_opt2.json.
bench-opt2:
	cargo run --release -p ccured-bench --bin tables -- fig-opt2

# E16: cure-service warm vs cold recure; writes BENCH_serve.json.
bench-serve:
	cargo run --release -p ccured-bench --bin tables -- fig-serve

# E17: generative differential soundness campaign; writes BENCH_synth.json.
bench-synth:
	cargo run --release -p ccured-bench --bin tables -- fig-synth

# E19: temporal lock-and-key check overhead; writes BENCH_temporal.json.
bench-temporal:
	cargo run --release -p ccured-bench --bin tables -- fig-temporal

# E20: physical-subtype hierarchy build cost; writes BENCH_hierarchy.json.
bench-hierarchy:
	cargo run --release -p ccured-bench --bin tables -- fig-hierarchy

# Generative soundness smoke: synthesize a small corpus across every
# profile, then run a campaign (cure + tree-vs-VM differential + seeded
# faults on both engines). Exit 5 = escape, 8 = divergence (also in CI).
synth-smoke:
	cargo run -q -p ccured-cli --bin ccured -- synth target/synth-smoke/corpus --units 10 --seed 1
	cargo run -q -p ccured-cli --bin ccured -- batch target/synth-smoke/corpus --jobs 4 --no-cache
	cargo run -q -p ccured-cli --bin ccured -- campaign target/synth-smoke/campaign --units 50 --mutants-per-unit 2 --seed 1 --json > BENCH_campaign_smoke.json
	rm -rf target/synth-smoke

# Cure-service end-to-end smoke: daemon + CLI client, 200 mixed requests
# including injected worker panics and a deadline-exceeding cure (also
# run in CI; see ci/serve_smoke.py).
serve-smoke:
	cargo build --release -p ccured-cli
	python3 ci/serve_smoke.py target/release/ccured

# The runtime's digest gate: perfbench exec/cure/recure once at seed 1,
# each "correct": true, with the exec and cure determinism digests equal
# to perfbench/baseline.json (also run by CI's perfbench-smoke job).
perfbench-smoke:
	sh ci/perfbench_smoke.sh

# The VM's dispatch loop calls no per-op helper out of line: objdump of
# the release binary's `vm_run` (also run by CI's bench job).
vm-inline:
	cargo build --release -p ccured-cli
	sh ci/vm_inline.sh target/release/ccured

# Rustdoc with warnings as errors (also run by CI's lint job).
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

examples:
	cargo run -p ccured-examples --bin quickstart
	cargo run -p ccured-examples --bin oop_rtti
	cargo run -p ccured-examples --bin ftpd_overflow
	cargo run -p ccured-examples --bin split_hostent
	cargo run -p ccured-examples --bin wrapper_demo
	cargo run -p ccured-examples --bin bug_museum

# Large-scale workload runs (not part of `cargo test`).
stress:
	cargo test --release -p ccured-integration --test stress -- --ignored

clean:
	cargo clean
