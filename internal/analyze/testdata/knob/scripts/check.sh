#!/bin/sh
# The knob fixture's gate: it passes -n, and names -dry only in this
# comment and in an echo, neither of which passes it.
set -eu
echo "==> go run ./cmd/knobfix -n 2 (without -dry)"
go run ./cmd/knobfix -n 2
