#!/usr/bin/env bash
# Print one SHA-256 digest over every tracked source file that
# determines the bytes of a generated RHMD-CORPUS file: the container
# format and writer, the presets and their translation into generator
# and extraction configs (core/experiment), program generation and
# execution (trace/), the PMU and CPI models (uarch/), window
# extraction (features/) and the seeded RNG. The CI corpus caches are
# keyed on it, so a change to any of these files regenerates the
# corpora instead of replaying stale bytes.
#
# Usage: tools/corpus_cache_key.sh   (from anywhere inside the repo)
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
files=$(git ls-files -- \
    src/corpus/format.hh src/corpus/cache.cc \
    src/corpus/writer.hh src/corpus/writer.cc \
    src/core/experiment.hh src/core/experiment.cc \
    src/trace src/uarch src/features \
    src/support/rng.hh src/support/rng.cc)
if [ -z "$files" ]; then
    echo "corpus_cache_key.sh: no corpus source files found" >&2
    exit 1
fi
# shellcheck disable=SC2086  # tracked source paths contain no spaces
sha256sum $files | sha256sum | cut -d ' ' -f 1
