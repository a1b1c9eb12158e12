#!/usr/bin/env bash
# Runs allocprobe against each given commit of a qcloud git repository,
# each in its own exported copy under a scratch directory, and prints
# one line per commit.
#
#   bash perfbench/bisect/bisect.sh <repo> <scratch-dir> <commit>...
#
# The copies are made with `git archive`; nothing is written to <repo>.
set -euo pipefail

repo="$1"
scratch="$2"
shift 2
here="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$scratch"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly

for commit in "$@"; do
	dir="$scratch/$commit"
	rm -rf "$dir"
	mkdir -p "$dir"
	git -C "$repo" archive "$commit" | tar -x -C "$dir"
	mkdir -p "$dir/cmd/allocprobe"
	cp "$here/allocprobe.go" "$dir/cmd/allocprobe/main.go"
	printf '%s %s ' "$commit" "$(git -C "$repo" log -1 --format=%s "$commit" | cut -c1-60)"
	(cd "$dir" && go run ./cmd/allocprobe)
done
