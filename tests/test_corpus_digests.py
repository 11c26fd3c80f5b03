"""Byte identity of the CLI on the benchmark corpus.

Every distinct call of the four corpora of ``perfbench/corpus.py``
(seeds 1-3) runs in process through ``tropmom.cli.main``; the sha256 of
its exit code, stdout and stderr must equal the one recorded in
``corpus_digests.json``.  A call that repeats across seeds is run once.
A refactor that is meant to keep the output must leave every digest as
it is; a change that is meant to alter an answer rewrites the file with

    PYTHONPATH=src python tests/test_corpus_digests.py

and the diff of that file names each call whose output moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

from tropmom import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"
SEEDS = (1, 2, 3)


def _corpus():
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", ROOT / "perfbench" / "corpus.py"
    )
    module = importlib.util.module_from_spec(spec)
    # the dataclass decorator looks its module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _calls(folder: Path) -> dict[str, list[str]]:
    """Name -> argv of each distinct call; a seeded problem whose input
    differs between seeds is named once per input, with its seeds."""
    corpus = _corpus()
    by_input: dict[tuple, tuple] = {}
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            problems = corpus.build(workload, seed)
            argvs = corpus.write(problems, folder / f"{workload}-{seed}")
            for p, argv in zip(problems, argvs):
                key = (workload, p.name, p.argv, json.dumps(p.doc, sort_keys=True))
                seeds, _ = by_input.setdefault(key, ([], argv))
                seeds.append(seed)
    inputs_per_name = Counter(key[:2] for key in by_input)
    calls = {}
    for (workload, name, _, _), (seeds, argv) in by_input.items():
        label = f"{workload}/{name}"
        if inputs_per_name[workload, name] > 1:
            label += "@seed" + ",".join(map(str, seeds))
        calls[label] = argv
    return calls


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    blob = json.dumps([rc, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digests(folder: Path) -> dict[str, str]:
    return {label: _digest(argv) for label, argv in sorted(_calls(folder).items())}


def test_corpus_output_is_byte_identical(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digests(tmp_path)
    changed = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    assert not changed, f"output changed on: {', '.join(changed)}"
    assert got.keys() == want.keys(), (
        f"calls missing: {sorted(want.keys() - got.keys())}; "
        f"calls not recorded: {sorted(got.keys() - want.keys())}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(Path(tmp))
    DIGESTS.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}")
