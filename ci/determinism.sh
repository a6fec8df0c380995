#!/usr/bin/env bash
# One driver for CI's stdout-determinism steps.
#
#   ci/determinism.sh <name> <kind> [experiment ids...] [-- <leg>...]
#
# Captures the experiments binary's stdout/stderr under a matrix of legs,
# then hands every capture to `ci/validate.py <kind>`. Each leg is
#
#   <tag>[,VAR=VALUE...]:<extra flags>
#
# and its captures land in <name>_<tag>.out / <name>_<tag>.err. Without
# explicit legs the standard matrix runs: --jobs 1/4/8 and --jobs 4
# --no-result-cache. The 'diskcache' validator kind receives stdout:stderr
# pairs; every other kind receives the stdout captures in leg order.
#
# Environment knobs:
#   DETERMINISM_BIN          binary to drive (default ./target/release/experiments)
#   DETERMINISM_EXTRA_LEGS   extra leg specs appended to the matrix,
#                            separated by ';'
#   DETERMINISM_SEED_REPLAY=1  additionally require that --seed 7 replays
#                            byte-identically across two fresh processes
#                            AND changes stdout versus the first leg
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: ci/determinism.sh <name> <kind> [experiment ids...] [-- <leg>...]" >&2
  exit 2
fi

name=$1
kind=$2
shift 2

ids=()
while [[ $# -gt 0 && $1 != "--" ]]; do
  ids+=("$1")
  shift
done
[[ $# -gt 0 ]] && shift # drop the "--"

legs=("$@")
if [[ ${#legs[@]} -eq 0 ]]; then
  legs=(
    "j1:--jobs 1"
    "j4:--jobs 4"
    "j8:--jobs 8"
    "nocache:--jobs 4 --no-result-cache"
  )
fi
if [[ -n ${DETERMINISM_EXTRA_LEGS:-} ]]; then
  IFS=';' read -r -a extra <<<"$DETERMINISM_EXTRA_LEGS"
  legs+=("${extra[@]}")
fi

bin=${DETERMINISM_BIN:-./target/release/experiments}

run_leg() { # run_leg <out> <err> <env-csv> <flags...>
  local out=$1 err=$2 envs=$3
  shift 3
  local assignments=()
  if [[ -n $envs ]]; then
    IFS=',' read -r -a assignments <<<"$envs"
  fi
  env "${assignments[@]}" "$bin" "${ids[@]}" "$@" >"$out" 2>"$err"
}

captures=()
for leg in "${legs[@]}"; do
  spec=${leg%%:*}
  flags=${leg#*:}
  tag=${spec%%,*}
  envs=""
  [[ $spec == *,* ]] && envs=${spec#*,}
  out="${name}_${tag}.out"
  err="${name}_${tag}.err"
  # shellcheck disable=SC2086 — leg flags are intentionally word-split.
  run_leg "$out" "$err" "$envs" $flags
  if [[ $kind == diskcache ]]; then
    captures+=("$out:$err")
  else
    captures+=("$out")
  fi
done

python3 ci/validate.py "$kind" "${captures[@]}"

if [[ ${DETERMINISM_SEED_REPLAY:-0} == 1 ]]; then
  "$bin" "${ids[@]}" --seed 7 >"${name}_s7a.out" 2>/dev/null
  "$bin" "${ids[@]}" --seed 7 >"${name}_s7b.out" 2>/dev/null
  cmp "${name}_s7a.out" "${name}_s7b.out"
  first=${captures[0]%%:*}
  if cmp -s "$first" "${name}_s7a.out"; then
    echo "determinism.sh: --seed 7 did not change the ${name} capture" >&2
    exit 1
  fi
fi
