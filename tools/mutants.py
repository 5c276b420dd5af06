"""Run the kill list: each entry breaks the library on purpose, and the tests
listed with it must then fail.

    python3 tools/mutants.py

Mutation testing (DeMillo, Lipton and Sayward, 1978) shows that a test
catches the fault it was written for. The tracked files of the working tree
(``git ls-files``) are copied into a temporary directory, and the test files
that the entries list are run there once, unmutated: they must pass. Then,
for each entry, its one edit is made and ``python -m pytest -x -q`` runs on
that entry's test files; the edit is undone before the next entry. A mutant
is killed when the run fails, and the first failing test is printed. The
script exits non-zero, naming each mutant that survives and each stale entry:
one whose old text does not occur exactly once in its file, or whose test
file is missing. A mutant that changes no behaviour (an equivalent mutant,
such as a sort kind that gives the same counts) has no place on the list.

Only the standard library is used, and pytest to run the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SIM = "src/qubitkit/sim.py"
BB84 = "src/qubitkit/algorithms/bb84.py"
TEST_SIM = "tests/test_sim.py"
TEST_BB84 = "tests/test_bb84.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # The live-slice engine (sim._apply_sliced) and the running sum.
    Mutant(
        "an X marks both slices of its pairs live",
        SIM,
        '        live[run] = live[index ^ b][run] if kind == "X" else True\n',
        "        live[run] = True\n",
        (TEST_SIM,),
    ),
    Mutant(
        "a high gate leaves the live mask as it was",
        SIM,
        '        live[run] = live[index ^ b][run] if kind == "X" else True\n',
        "",
        (TEST_SIM,),
    ),
    Mutant(
        "a pair runs only when its lower slice is live",
        SIM,
        "        run |= run[index ^ b]\n",
        "",
        (TEST_SIM,),
    ),
    Mutant(
        "the running sum drops the carry into each block",
        SIM,
        "            block[0] += carry\n",
        "",
        (TEST_SIM,),
    ),
    Mutant(
        "the running sum reads only a block's first amplitude",
        SIM,
        "        if bits[0] or bits.any():\n",
        "        if bits[0]:\n",
        (TEST_SIM,),
    ),
    # Low runs (sim._low_run_steps, sim._apply_low_run, sim._rotate).
    Mutant(
        "a low run drops its restoring rotation",
        SIM,
        "    if shift:\n        steps.append((_rotate, bits - shift))\n",
        "",
        (TEST_SIM,),
    ),
    Mutant(
        "a low run of an odd number of steps is not copied back",
        SIM,
        "            if len(steps) % 2:\n                buffers[0][...] = scratch\n",
        "",
        (TEST_SIM,),
    ),
    Mutant(
        "a rotation turns the bits down, not up",
        SIM,
        "    np.copyto(dst.reshape(size >> k, 1 << k), src.reshape(1 << k, size >> k).T)\n",
        "    np.copyto(dst.reshape(1 << k, size >> k), src.reshape(size >> k, 1 << k).T)\n",
        (TEST_SIM,),
    ),
    # Paths that keep the bytes and differ in the calls they make.
    Mutant(
        "16 qubits take one apply_gate call per gate",
        SIM,
        "    blocked = n >= _BLOCK_QUBITS\n",
        "    blocked = n > _BLOCK_QUBITS\n",
        (TEST_SIM,),
    ),
    Mutant(
        "apply_gate copies and slices a state of exactly 2^16 amplitudes",
        SIM,
        "    if amps.size <= 1 << _BLOCK_QUBITS:\n",
        "    if amps.size < 1 << _BLOCK_QUBITS:\n",
        (TEST_SIM,),
    ),
    Mutant(
        "a gate already on the fast bit takes a rotation by 0",
        SIM,
        "        if low < fast:\n",
        "        if low <= fast:\n",
        (TEST_SIM,),
    ),
    # Kernels.
    Mutant(
        "1/sqrt(2) is taken as sqrt(0.5), one ulp away",
        SIM,
        "_INV_SQRT2 = 1.0 / math.sqrt(2.0)\n",
        "_INV_SQRT2 = math.sqrt(0.5)\n",
        (TEST_SIM,),
    ),
    Mutant(
        "the out-of-place CNOT skips its whole copy",
        SIM,
        "    np.copyto(dst, src)\n",
        "",
        (TEST_SIM,),
    ),
    Mutant(
        "_columns drops the last index of a short axis",
        SIM,
        "for j in range(v.shape[-1])]",
        "for j in range(v.shape[-1] - 1)]",
        (TEST_SIM,),
    ),
    Mutant(
        "a CNOT whose control is the lower qubit keeps the axes unswapped",
        SIM,
        "    return view if targets[0] == hi else view.swapaxes(1, 3)\n",
        "    return view\n",
        (TEST_SIM,),
    ),
    # Sharing slices over threads (sim._share).
    Mutant(
        "a worker's error is swallowed",
        SIM,
        "            errors.append(exc)\n",
        "            pass\n",
        (TEST_SIM,),
    ),
    Mutant(
        "the third share is never run",
        SIM,
        "for share in shares[1:]]",
        "for share in shares[2:]]",
        (TEST_SIM,),
    ),
    # Samplers.
    Mutant(
        "the shot search takes the left side",
        SIM,
        '    return np.searchsorted(cum[:-1], uniforms * cum[-1], side="right")\n',
        '    return np.searchsorted(cum[:-1], uniforms * cum[-1], side="left")\n',
        (TEST_SIM,),
    ),
    Mutant(
        "the dense sampler has no +inf sentinel",
        SIM,
        "    cum[-1] = np.inf\n",
        "",
        (TEST_SIM,),
    ),
    Mutant(
        "the dense sampler leaves +inf in the running sum",
        SIM,
        "        cum[-1] = total\n",
        "        pass\n",
        (TEST_SIM,),
    ),
    Mutant(
        "the sparse tally sums the weights in their unsorted order",
        SIM,
        "np.add.reduceat(weights[order], starts)",
        "np.add.reduceat(weights, starts)",
        (TEST_SIM,),
    ),
    Mutant(
        "the narrow batch count starts at column 0 twice",
        SIM,
        "        for j in range(1, width - 1):\n",
        "        for j in range(0, width - 1):\n",
        (TEST_SIM,),
    ),
    # Boundary rules.
    Mutant(
        "check_int accepts bools",
        SIM,
        "    return type(value) is int or (isinstance(value, Integral) and not isinstance(value, bool))\n",
        "    return type(value) is int or isinstance(value, Integral)\n",
        (TEST_SIM,),
    ),
    # BB84.
    Mutant(
        "a collapse gathers row 2 * flag + bit",
        BB84,
        "np.take(_COLLAPSED, 2 * bits + flags, axis=0)",
        "np.take(_COLLAPSED, 2 * flags + bits, axis=0)",
        (TEST_BB84,),
    ),
    Mutant(
        "half compare publishes floor(L/2) bits",
        BB84,
        "    cut = math.ceil(length / 2) if compare_mode == \"half\" else length\n",
        "    cut = math.floor(length / 2) if compare_mode == \"half\" else length\n",
        (TEST_BB84,),
    ),
    Mutant(
        "the eavesdropper and the receiver swap spawn keys",
        BB84,
        "(child(0), child(1) if density else None, child(2))",
        "(child(0), child(2) if density else None, child(1))",
        (TEST_BB84,),
    ),
    Mutant(
        "the protocol retries a round whose key just covers the message",
        BB84,
        "len(trace.shared_key) >= len(message)",
        "len(trace.shared_key) > len(message)",
        (TEST_BB84,),
    ),
]


def _copy_tree(dest: Path) -> None:
    """Copy the working tree's tracked files, as they are now, into ``dest``."""
    listed = subprocess.run(
        ["git", "ls-files", "-z"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def _pytest(tree: Path, tests) -> tuple[bool, str, float]:
    """Run ``pytest -x -q`` on ``tests`` in ``tree``: whether it passed, the
    first failing test (or the last output line), and the seconds it took."""
    # No bytecode cache: a mutant and the original can share a size and an
    # mtime second, and a cached module of one would then run for the other.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        env=env,
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - start
    lines = done.stdout.splitlines()
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode == 0, (failed or lines[-1:] or ["no output"])[0], seconds


def stale_reason(mutant: Mutant, root: Path = ROOT) -> str | None:
    """Why ``mutant`` no longer fits the tree at ``root``, or None if it does."""
    missing = [test for test in mutant.tests if not (root / test).is_file()]
    if missing:
        return f"test file missing: {', '.join(missing)}"
    source = root / mutant.path
    found = source.read_text(encoding="utf-8").count(mutant.old) if source.is_file() else 0
    if found != 1:
        return f"old text occurs {found} times in {mutant.path}"
    return None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as temp:
        tree = Path(temp)
        _copy_tree(tree)
        listed = {test for mutant in MUTANTS for test in mutant.tests}
        tests = sorted(test for test in listed if (tree / test).is_file())
        passed, detail, seconds = _pytest(tree, tests)
        if not passed:
            print(f"the unmutated tests fail ({detail}); no mutant was run")
            return 1
        print(f"unmutated: {len(tests)} test files pass ({seconds:.1f} s)")
        survivors, stale = [], []
        for mutant in MUTANTS:
            reason = stale_reason(mutant, tree)
            if reason:
                stale.append(mutant.name)
                print(f"STALE     {mutant.name}: {reason}")
                continue
            source = tree / mutant.path
            original = source.read_text(encoding="utf-8")
            source.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                passed, detail, seconds = _pytest(tree, mutant.tests)
            finally:
                source.write_text(original, encoding="utf-8")
            if passed:
                survivors.append(mutant.name)
                print(f"SURVIVED  {mutant.name} ({seconds:.1f} s)")
            else:
                print(f"killed    {mutant.name}: {detail} ({seconds:.1f} s)")
    print(f"{len(MUTANTS)} mutants: {len(survivors)} survived, {len(stale)} stale")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
