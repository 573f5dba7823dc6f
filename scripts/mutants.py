"""One-line mutants of the hiernet sources, and a runner that checks the tests kill each one.

Each mutant is (file, old text, new text, why): the old text occurs exactly
once in its file, and the mutant replaces it with the new text.  A plain
run copies `src/`, `tests/` and `pyproject.toml` to a temporary directory
and runs the tests there once as they are, which must pass.  Then, for
each mutant, it applies the edit, runs `python -m pytest -x -q -p
no:cacheprovider` and restores the file.  It prints a kill table, with
the first failing test of each killed mutant, and exits 1 if any mutant
survives.

    python scripts/mutants.py            # every mutant, about half an hour
    python scripts/mutants.py --check    # only check that each old text occurs once

The script lives outside `tests/`, so a plain `pytest` run does not run it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AN, CORE, ENS = "src/hiernet/analytics.py", "src/hiernet/core.py", "src/hiernet/ensemble.py"
GEN = "src/hiernet/gen.py"

MUTANTS = [
    # -- analytics: block layout and code tables
    (AN, "sizes[idx].astype(np.int64)", "sizes[idx]",
     "_level_groups hands over int32 sizes: the edge tier's V_i * V_j wraps past 2**31"),
    (AN, "    A[ju, iu] = B\n", "    A[iu, ju] = B\n",
     "_adjacency fills the upper triangle only: A is not symmetric"),
    (AN, "np.nonzero(np.arange(c)[:, None] < np.arange(c))",
     "np.nonzero(np.arange(c)[:, None] > np.arange(c))",
     "_child_pairs lists the pairs in another order than the bits"),
    (AN, "(1 << np.arange(len(B))) @ B", "(1 << np.arange(len(B))[::-1]) @ B",
     "_code reads a cluster's bits big-endian: the wrong _code_table column"),
    # -- analytics: the contractions and the pattern recurrences
    (AN, 'np.einsum("ijr,kjr->kir", A, X)', 'np.einsum("ijr,kir->kir", A, X)',
     "_link_sums weights each child's own value by its degree"),
    (AN, 'np.einsum("ikr,kr,kjr->ijr", A, V, A)', 'np.einsum("ikr,ir,kjr->ijr", A, V, A)',
     "_walks weights the walk's start, not its middle child"),
    (AN, 'np.einsum("ijr,jr,ijr->ir", K, V, A)', 'np.einsum("ijr,ir,ijr->ir", K, V, A)',
     "_triangle_walks weights the wrong corner"),
    (AN, 'np.einsum("ir,ijr,ijr,jr->r", V, K, K, V)', 'np.einsum("ir,ijr,ijr,ir->r", V, K, K, V)',
     "_ring_walks weights one end twice"),
    (AN, "(_ring_walks(K, V) + (V2 * AV2)", "(_ring_walks(K, V) + (V * AV2)",
     "the ring term subtracts V, not V**2, of the walks that revisit a child"),
    (AN, "(2 * E * W + V * _comb2(W))", "(E * W + V * _comb2(W))",
     "wedges count an internal edge extended sideways once, not at both ends"),
    (AN, "(V * tri).sum(axis=0) // 6", "(V * tri).sum(axis=0) // 3",
     "triangles across three children counted twice"),
    (AN, "    WW += AC2V\n", "    WW -= AC2V\n",
     "the bowtie weight subtracts the linked siblings' C(V, 2)"),
    (AN, "E[idx].sum(axis=0) + (B * V[iu] * V[ju]).sum(axis=0)", "(B * V[iu] * V[ju]).sum(axis=0)",
     "the edge tier drops the children's own edges"),
    (AN, "_INT64_SAFE_NODES = 40_000", "_INT64_SAFE_NODES = 400_000",
     "pattern levels stay int64 up to 400000 nodes, where C4 overflows"),
    # -- analytics: the passes
    (AN, "                a.flags.writeable = False\n",
     "                a.flags.writeable = True\n",
     "_cached leaves a pass's arrays writable"),
    (AN, "acc = [np.zeros(len(sizes[-1]), t) for t in dtypes]",
     "acc = [np.ones(len(sizes[-1]), t) for t in dtypes]",
     "_descend starts every root's accumulators at 1"),
    (AN, "last(idx, D, (D * D + F) // 2)", "last(idx, D, (D * D - F) // 2)",
     "T = (D**2 - F) / 2 in the node passes"),
    (AN, "return 2 * WE + tri - W * W, W", "return WE + tri - W * W, W",
     "_node_steps counts the linked siblings' edges once"),
    (AN, "(R.sum(axis=1) >= 2)", "(R.sum(axis=1) >= 1)",
     "a lone child of a free cluster leads a component of its own"),
    (AN, "return (ex | exits,)", "return (exits,)",
     "the distance scan's exited flag is not inherited from the parent"),
    (AN, "max(top + 1, 2 * width)", "max(top, 2 * width)",
     "_add_counts widens the rows one bin short of a value past twice their width"),
    (AN, "(bins + (root - root[0]) * width)", "(bins + root * width)",
     "_add_counts offsets a block's rows by their roots twice: in the bincount and the slice"),
    (AN, "(root - root[0]) * width", "(root - root) * width",
     "_add_counts adds every root of a block at the first root's row"),
    (AN, "    dist = np.zeros(adj.shape, np.int64)\n", "    dist = np.ones(adj.shape, np.int64)\n",
     "the child-graph BFS puts unreachable pairs in bucket 1, at distance 1"),
    (AN, "hist = _add_counts(hist, root, d, (V[iu] * V[ju]).ravel())",
     "hist = _add_counts(hist, root, d)",
     "the scan counts each child pair once, not weighted by its two subtree sizes"),
    (AN, 'root = ends[g].searchsorted(sel, side="right")',
     'root = ends[g].searchsorted(sel, side="left")',
     "a forest cluster that starts a root's run is scanned in the root before"),
    (AN, 'root = ends[g].searchsorted(sel, side="right")\n',
     'root = ends[g].searchsorted(sel, side="right").astype(np.int32)\n',
     "the scan's roots narrowed to int32: root * (N + 1) wraps past 2**31"),
    (AN, "(R * V[:, free]).sum(axis=1) + root[free] * (n + 1))[lead]",
     "(R * V[:, free]).sum(axis=1))[lead]",
     "a group key without its root offset: every forest group counts in root 0"),
    (AN, "[{1: k} if k else {} for k in _free_scan(model)[1].tolist()]",
     "[{} for k in _free_scan(model)[1].tolist()]",
     "the components table leaves the lone nodes out of the size-1 count"),
    (AN, "np.bincount(root, size * count, len(hist))", "np.bincount(root, count, len(hist))",
     "the lone-node identity subtracts each root's group count, not its grouped nodes"),
    (AN, "_derived().sizes[-1] - linked", "_derived().sizes[-1][0] - linked",
     "every root's lone nodes follow from root 0's node count"),
    (AN, "np.append(starts[ends[0][:-1]], len(below))",
     "np.append(starts[ends[0][:-1] - 1], len(below))",
     "_root_ends ends each run at its last cluster's first child, not the next root's first child"),
    (AN, "max(row, default=0) for row in _rows", "min(row, default=0) for row in _rows",
     "the diameter takes a root's shortest distance, not its longest"),
    (AN, "200 * T // np.maximum(D * (D - 1), 1)", "200 * T // np.maximum(D * (D - 1) + 1, 1)",
     "the integer clustering bins divide by d(d - 1) + 1: values on a bin edge drop a bin"),
    (AN, "lo = int(root[0]) * width", "lo = int(root[0])",
     "a forest adds each block's counts at its first root's index, not at that root's row"),
    # -- analytics: the descent's last-level consumers
    (AN, 'ends.searchsorted(idx[0], side="right")', 'ends.searchsorted(idx[0], side="left")',
     "a forest block that starts a root counts its nodes' degrees in the root before"),
    (AN, "put(idx, *(up if c == 1", "(g > 1 or c > 1) and put(idx, *(up if c == 1",
     "level 1's one-child clusters never reach the consumer: their nodes go uncounted"),
    (AN, "r, k = np.nonzero(counts[:, lo:])",
     "r, k = (a[::-1] for a in np.nonzero(counts[:, lo:]))",
     "_rows lists each row's keys in descending order, so every histogram is reversed"),
    # -- analytics: climbs and point queries
    (AN, "pair_offset(a, s, c) if a < s else pair_offset(s, a, c)",
     "pair_offset(a, s, c) if a < s else pair_offset(a, s, c)",
     "_sibling_bits reads the wrong bit for an earlier sibling"),
    (AN, "total += sum(e[s] for s in sibs) + deg * w + tri",
     "total += sum(e[s] for s in sibs) + tri",
     "a node's climb drops the triangles closing on its lower-level neighbours"),
    (AN, "lo, end = end, end + c - 1 - s", "lo, end = end, end + c - s",
     "_hops reads each child's neighbour row one bit too long"),
    (AN, "        return 2\n", "        return 3\n",
     "distance gives 3 through an ancestor-linked outside cluster"),
    # -- core: int32 switches and the codec
    (CORE, "_INT32_SAFE_KEYS = 1 << 31", "_INT32_SAFE_KEYS = 1 << 32",
     "the int32 bound on keys and bit offsets is 2**32: offsets past 2**31 wrap"),
    (CORE, "key_t = np.int32 if len(widths) * (n + 1) < _INT32_SAFE_KEYS else np.int64",
     "key_t = np.int32",
     "the shifted leaf cums stay int32 at any size"),
    (CORE, "small = not len(nb) or 0 <= nb.min() and nb.max() < _INT32_SAFE_KEYS",
     "small = not len(nb) or nb.max() < _INT32_SAFE_KEYS",
     "LinkTable builds a level's int32 offsets over negative bit counts"),
    (CORE, "np.concatenate([np.zeros(0, np.int32), *starts])",
     "np.concatenate([np.zeros(0, np.int64), *starts])",
     "LinkTable joins the levels' offsets as int64 even when every level is int32"),
    (CORE, "j = int(bad.argmax()) if bad.any()", "j = int(bad.argmax()) + 1 if bad.any()",
     "validate names the vector after the first wrong end"),
    (CORE, "    nbits -= counts\n", "",
     "_bit_counts gives c*c/2, not c(c-1)/2"),
    (CORE, "dt = np.int32 if total < _INT32_SAFE_BYTES else np.int64", "dt = np.int32",
     "_bitmap_lines' bit positions stay int32 past 2**31 bytes"),
    (CORE, "ascending = bool((nd[1:] >= nd[:-1]).all())", "ascending = True",
     "_put_decimal takes every digit count to ascend"),
    (CORE, "1 <= nd.min() <= nd.max() <= 9", "1 <= nd.min() <= nd.max() <= 10",
     "_read_counts takes ten-digit counts, which wrap int32"),
    # -- core: levels of equal-length lines, by rows
    (CORE, "min(10 ** d - 1, n)", "min(10 ** d, n)",
     "_bitmap_rows ends each run of labels one line into the next digit count"),
    (CORE, "block[:, len(label) + d - 1 - k] += a", "block[:, len(label) + k] += a",
     "_bitmap_rows writes a label's digit places in the wrong order"),
    (CORE, "[:, width - 1 - where.nbits:-1]", "[:, width - where.nbits:]",
     "_row_bits puts the bit columns one byte late, over the newline"),
    (CORE, "and raw.startswith(_count_run(int(first), n), lo)",
     'and raw.startswith(b"%d " % int(first), lo)',
     "_read_count_line checks only the first count of a line it takes as one count repeated"),
    (CORE, "counts.min() == counts.max()", "counts[0] == counts[-1]",
     "_one_count takes a level whose first and last counts agree for one of one count"),
    (CORE, "    if room is not None and total > room:\n        return None\n"
           "    buf = np.empty(total, dtype=np.uint8)\n    for d,",
     "    buf = np.empty(total, dtype=np.uint8)\n    for d,",
     "_bitmap_rows ignores the room left in the input: a cut level fails to reshape"),
    # -- gen: link draws
    (GEN, "            at += len(uniforms)\n", "",
     "generate_links writes every block of a level at the level's start"),
    # -- ensemble: forests and summaries
    (ENS, "max(1, *(m.shape.gamma for m in models))", "max(0, *(m.shape.gamma for m in models))",
     "a forest of zero-level copies gets no level, so one root"),
    (ENS, "if g <= m.shape.gamma else _PAD_LEVEL", "if g < m.shape.gamma else _PAD_LEVEL",
     "_forest pads over each copy's top level"),
    (ENS, "key=lambda k: math.inf if k == _UNREACHABLE else float(k)", "key=str",
     "_mean_counts orders merged keys as strings: 10 before 9"),
]


def check() -> list[str]:
    """One line per mutant whose old text does not occur exactly once, or equals its new text."""
    problems = []
    for k, (path, old, new, _) in enumerate(MUTANTS, 1):
        found = (ROOT / path).read_text().count(old)
        if found != 1:
            problems.append(f"mutant {k}: {path} holds its old text {found} times, not once")
        if old == new:
            problems.append(f"mutant {k}: the new text is the old one")
    return problems


def run_tests(tree: Path) -> tuple[bool, str, float]:
    """(passed, first failing test, seconds) of `pytest -x` in `tree`, importing hiernet from it."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"), path]))}
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                         cwd=tree, env=env, capture_output=True, text=True).stdout
    failed = [line.split(" ")[1] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return not failed and " passed" in out, (failed or ["-"])[0], time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="only check the old texts")
    args = ap.parse_args(argv)
    problems = check()
    for line in problems:
        print(line)
    if problems or args.check:
        if not problems:
            print(f"{len(MUTANTS)} mutants, each old text found once")
        return 1 if problems else 0
    with tempfile.TemporaryDirectory(prefix="hiernet-mutants-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        passed, first, secs = run_tests(tree)
        if not passed:
            print(f"the unmutated tests fail ({first}), so no mutant can be judged")
            return 2
        print(f"unmutated: passed in {secs:.0f} s", flush=True)
        print(f"{'#':>3}  {'result':8}  {'s':>4}  {'file':13}  first failing test / why")
        survivors = 0
        for k, (path, old, new, why) in enumerate(MUTANTS, 1):
            target = tree / path
            text = target.read_text()
            target.write_text(text.replace(old, new))
            try:
                passed, first, secs = run_tests(tree)
            finally:
                target.write_text(text)
            survivors += passed
            print(f"{k:>3}  {'SURVIVED' if passed else 'killed':8}  {secs:>4.0f}  "
                  f"{Path(path).name:13}  {first if not passed else why}", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
