#!/usr/bin/env bash
# Two hot-path guards:
#  1. Fails if any String allocation or formatting creeps back onto the
#     machine's per-event dispatch path. The hot functions below run once
#     (or more) per simulated event; the only allowed string work is
#     inside the opt-in #[cold] trace helpers.
#  2. Fails if `unsafe` appears in any Rust file under crates/. Every
#     crate root forbids unsafe_code; this scan also reaches the tests and
#     benches, which the crate-root lint does not cover.
set -euo pipefail
cd "$(dirname "$0")/.."

python3 - <<'EOF'
import re
import sys

SRC = "crates/core/src/machine.rs"
HOT = {
    "run",
    "dispatch",
    "price_data",
    "nm_stream",
    "price_dma",
    "start_dma",
    "process_actions",
    "sample_queues",
}
# String allocation/formatting constructs banned on the per-event path.
# (A per-run scratch Vec is fine; per-event string work is not.)
BANNED = re.compile(r"format!|\.to_string\(|String::|\.to_owned\(|\.clone\(")

lines = open(SRC, encoding="utf-8").readlines()
sig = re.compile(r"^(    )(?:pub )?fn (\w+)")
current = None
cold = False
pending_cold = False
violations = []
for lineno, line in enumerate(lines, 1):
    if line.strip() == "#[cold]":
        pending_cold = True
        continue
    m = sig.match(line)
    if m:
        current = m.group(2)
        cold = pending_cold
        pending_cold = False
    elif line.strip() and not line.startswith(" ") :
        current = None
    if pending_cold and line.strip() and not line.strip().startswith("#["):
        pending_cold = False
    if current in HOT and not cold and BANNED.search(line):
        violations.append((lineno, current, line.rstrip()))

found = {m.group(2) for m in map(sig.match, lines) if m}
missing = HOT - found
if missing:
    print(f"lint-hotpath: functions not found in {SRC}: {sorted(missing)}")
    sys.exit(1)
if violations:
    print(f"lint-hotpath: allocation/formatting on the per-event path in {SRC}:")
    for lineno, fn, text in violations:
        print(f"  {SRC}:{lineno} (fn {fn}): {text}")
    sys.exit(1)
print(f"lint-hotpath: {len(HOT)} hot function(s) clean in {SRC}")
EOF

python3 - <<'EOF'
import pathlib
import re
import sys

# The word `unsafe` outside comments. Mentions of the lint level itself
# (`forbid(unsafe_code)` / `deny(unsafe_code)`) are attributes, not code.
UNSAFE = re.compile(r"\bunsafe\b(?!_code)")

violations = []
scanned = 0
for path in sorted(pathlib.Path("crates").rglob("*.rs")):
    scanned += 1
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), 1
    ):
        code = line.split("//", 1)[0]
        if "unsafe_code" in code:
            continue
        if UNSAFE.search(code):
            violations.append((path, lineno, line.strip()))

if violations:
    print("lint-unsafe: `unsafe` in the workspace:")
    for path, lineno, text in violations:
        print(f"  {path}:{lineno}: {text}")
    sys.exit(1)
print(f"lint-unsafe: {scanned} file(s) clean")
EOF
