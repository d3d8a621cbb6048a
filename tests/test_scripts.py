"""The README's experiment scripts run end to end, and the code-line
counter counts what its docstring says.

Each experiment script is copied to a temporary directory and run from
there with ``PYTHONPATH=src``, so the SVG it writes next to itself lands
in that directory and nothing is written under ``scripts/``.
"""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from ratsep import outer_approximate
from ratsep.serialization import parse_instance

ROOT = Path(__file__).resolve().parents[1]


def run_script(tmp_path, name):
    script = tmp_path / name
    shutil.copy(ROOT / "scripts" / name, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )


def test_separation_demo(tmp_path):
    done = run_script(tmp_path, "run_separation_demo.py")
    assert done.returncode == 0, done.stderr
    assert '"certificate"' in done.stdout
    assert (tmp_path / "out" / "separation_demo.svg").is_file()


def test_outer_approximation(tmp_path):
    done = run_script(tmp_path, "run_outer_approximation.py")
    assert done.returncode == 0, done.stderr
    assert "11 cuts" in done.stderr
    table = [line.split() for line in done.stderr.splitlines() if line.strip()[:1].isdigit()]
    assert table[-1][:2] == ["11", "114/3721"]
    assert (tmp_path / "out" / "outer_approximation.svg").is_file()


def test_code_lines_counts_code_outside_docstrings():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    snippet = (
        '"""A module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # code, then a comment\n"
        "\n"
        "def f():\n"
        '    """A function docstring."""\n'
        '    s = """a string that is no docstring"""\n'
        "    return (x +\n"
        "            1)\n"
    )
    # x = 1, def f():, s = ..., return (x +, and 1)
    assert module.code_lines(snippet) == 5


def test_code_lines_on_the_package():
    package = ROOT / "src" / "ratsep"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(package)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    counts = {name: int(count) for count, name in rows}
    assert set(counts) == {path.name for path in package.glob("*.py")} | {"total"}
    total = counts.pop("total")
    assert total == sum(counts.values())
    assert 0 < total < sum(len(path.read_text().splitlines()) for path in package.glob("*.py"))


def run_ab_separate(against: Path, *options: str):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_separate.py"), "--against", str(against),
         "--count", "4", "--rounds", "1", *options],
        capture_output=True, text=True, timeout=120,
    )


def test_ab_separate_against_the_checkout_itself():
    # no --workload times both workloads; --workload W times W alone
    for workloads in (("separate_rays", "separate_bigk"), ("separate_rays",), ("separate_bigk",)):
        options = ("--workload", *workloads) if len(workloads) == 1 else ()
        done = run_ab_separate(ROOT, *options)
        assert done.returncode == 0, done.stderr
        rows = [line.split() for line in done.stdout.splitlines()]
        assert [row[0] for row in rows] == [
            f"{workload}{part}:" for workload in workloads for part in ("", ".margin_lp", ".stages")
        ]
        assert all(row[-5:] == ["over", "1", "x", "4", "calls"] for row in rows)


def test_ab_separate_fails_on_a_different_certificate(tmp_path):
    # a copy of the package whose separate returns beta + 1 must not pass
    shutil.copytree(ROOT / "src" / "ratsep", tmp_path / "src" / "ratsep")
    module = tmp_path / "src" / "ratsep" / "separation.py"
    source = module.read_text()
    done_line = "return Certificate(a, beta),"
    assert source.count(done_line) == 1
    module.write_text(source.replace(done_line, "return Certificate(a, beta + 1),"))
    done = run_ab_separate(tmp_path)
    assert done.returncode == 1
    assert done.stderr == "separate_rays: instance 0 differs between the trees\n"


def test_ab_separate_times_the_sweeps_against_the_checkout_itself():
    done = run_ab_separate(ROOT, "--workload", "approx_sweep")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    assert [row[0] for row in rows] == [
        f"approx_sweep{part}:" for part in ("", ".outer_approximate", ".excess_measure")
    ]
    assert all(row[-5:] == ["over", "1", "x", "4", "sweeps"] for row in rows)


def test_ab_separate_fails_on_a_different_excess(tmp_path):
    # a copy of the package whose excess measure counts one more point must not pass
    shutil.copytree(ROOT / "src" / "ratsep", tmp_path / "src" / "ratsep")
    module = tmp_path / "src" / "ratsep" / "approximation.py"
    source = module.read_text()
    done_line = "return Fraction(excess, lines * length)"
    assert source.count(done_line) == 1
    module.write_text(source.replace(done_line, "return Fraction(excess + 1, lines * length)"))
    done = run_ab_separate(tmp_path, "--workload", "approx_sweep")
    assert done.returncode == 1
    assert done.stderr == "approx_sweep: instance 0 differs between the trees\n"


def test_ab_separate_times_each_excess_call_against_the_checkout_itself():
    # the per-call line goes to standard error: each tree's median and p90
    # of one excess_measure call, their ratios, and one sample per call
    done = run_ab_separate(ROOT, "--workload", "approx_sweep")
    assert done.returncode == 0, done.stderr
    number = r"(\d+\.\d{3})"
    match = re.fullmatch(
        rf"approx_sweep\.excess_measure\.per_call: this p50 {number} us, p90 {number} us, "
        rf"against p50 {number} us, p90 {number} us, ratio p50 {number}, p90 {number} "
        r"over (\d+) calls\n",
        done.stderr,
    )
    assert match, done.stderr
    this50, this90, against50, against90, ratio50, ratio90 = map(float, match.groups()[:6])
    assert 0 < this50 <= this90 and 0 < against50 <= against90
    assert abs(ratio50 - this50 / against50) < 0.01 and abs(ratio90 - this90 / against90) < 0.01
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    calls = 0
    for obj in gen.approx_sweep(5, 4):
        inst = parse_instance(obj)
        approx = outer_approximate(inst.polyhedron, inst.probes, inst.options.budget)
        calls += (len(approx.cuts) + 1) * inst.options.grid.shape[0]
    assert int(match.group(7)) == calls
