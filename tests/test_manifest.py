"""A byte manifest of the benchmark's generated workloads.

``tests/byte_manifest.txt`` holds one line per op that
``perfbench/generate.py`` makes for ``anc_sim`` seeds 0-9 and
``business_reports`` seeds 0-3: workload, seed, op key, exit code and the
first 16 hex digits of the sha256 of stdout and of stderr. It also holds one
line per generated input file, with that file's digest, so that a change to
the generator shows apart from a change to the program. The test rebuilds
every op, runs it in this process and names the lines that differ.

A change that is meant to move a report rewrites the manifest, and lists the
lines that moved, as it would for a golden:

    PYTHONPATH=src python tests/test_manifest.py [FILE]
"""
import difflib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "byte_manifest.txt"
SEEDS = {"anc_sim": range(10), "business_reports": range(4)}


def _generator():
    # perfbench/generate.py is read as it is, under a name of its own
    spec = importlib.util.spec_from_file_location(
        "perfbench_generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves its annotations here
    spec.loader.exec_module(module)
    return module


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(main, argv):
    """(exit code, stdout bytes, stderr bytes) of ``main(argv)`` in-process."""
    out, err = io.BytesIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.TextIOWrapper(out, encoding="utf-8"), err
    try:
        code = main(list(argv))
        sys.stdout.flush()
        return code, out.getvalue(), err.getvalue().encode("utf-8")
    finally:
        sys.stdout, sys.stderr = saved


def manifest_lines(workdir: Path):
    from hushkit.cli import main

    gen = _generator()
    makers = {"anc_sim": gen.anc_ops, "business_reports": gen.business_ops}
    lines = []
    for workload, seeds in SEEDS.items():
        for seed in seeds:
            work = workdir / f"{workload}-{seed}"
            work.mkdir()
            ops = {op.key: op for plan in makers[workload](seed, work, ROOT / "configs")
                   for op in plan}
            lines += [f"{workload} {seed} config {path.name} {_digest(path.read_bytes())}"
                      for path in sorted(work.iterdir())]
            for key in sorted(ops):
                code, out, err = _run(main, ops[key].argv)
                lines.append(f"{workload} {seed} {key} {code} {_digest(out)} {_digest(err)}")
    return lines


def test_generated_workloads_give_the_manifest_bytes(tmp_path):
    expected = MANIFEST.read_text(encoding="utf-8").splitlines()
    moved = list(difflib.unified_diff(expected, manifest_lines(tmp_path),
                                      "manifest", "this tree", lineterm="", n=0))
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        text = "\n".join(manifest_lines(Path(tmp))) + "\n"
    Path(sys.argv[1] if len(sys.argv) > 1 else MANIFEST).write_text(text, encoding="utf-8")
