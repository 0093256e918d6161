"""Self-tests of ``tools/differential.py``: it finds a planted difference,
only where it was planted, and reports none between equal trees."""
import importlib.util
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("differential", ROOT / "tools" / "differential.py")
differential = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)


def _copy(tmp_path, name):
    src = tmp_path / name
    shutil.copytree(ROOT / "src" / "clifford3", src / "clifford3",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


@pytest.fixture(scope="module")
def argvs():
    return differential.session_argvs(seeds=[1])


def test_equal_trees_have_no_difference(tmp_path, argvs):
    a, b = _copy(tmp_path, "a"), _copy(tmp_path, "b")
    summary = differential.compare(sys.executable, a, b, "smoke", argvs)
    assert summary["session_argvs"] == 200
    assert summary["outcomes"] > 50000
    assert summary["differences"] == 0 and summary["first"] == [] and summary["by_call"] == {}


def test_an_off_by_one_tail_is_a_difference(tmp_path, argvs):
    base, change = _copy(tmp_path, "base"), _copy(tmp_path, "change")
    path = change / "clifford3" / "bounds.py"
    text = path.read_text()
    guard = "if not 0 <= d <= 2 * g - 2:"  # the line bound's special range
    assert text.count(guard) == 1
    path.write_text(text.replace(guard, "if not 0 <= d < 2 * g - 2:"))
    summary = differential.compare(sys.executable, base, change, "smoke", argvs)
    assert summary["differences"] > 0
    first = summary["first"][0]
    assert first["base"] != first["change"]
    assert any("RR-EXACT" in d["change"] for d in summary["first"])


def test_a_query_that_raises_changes_only_its_own_lines(tmp_path, monkeypatch):
    # each call is listed whatever the outcomes, so a constructor that raises
    # at more points shifts no later line
    base, change = _copy(tmp_path, "base"), _copy(tmp_path, "change")
    path = change / "clifford3" / "bounds.py"
    text = path.read_text()
    store = "        _store(self, (curve, inv, s1f, use_delta, use_hyperelliptic_sharpening))\n"
    assert text.count(store) == 1
    planted = '        if s1f == 0:\n            raise HypothesisFailed("planted")\n'
    path.write_text(text.replace(store, planted + store))
    monkeypatch.setattr(differential, "SHOWN", 10**6)
    summary = differential.compare(sys.executable, base, change, "smoke", [])
    points = {}
    for d in summary["first"]:
        name, _, at = d["call"].partition("(")
        assert ", s1f=0, " in at and d["base"] != d["change"], d
        points.setdefault(at, set()).add(name)
        if name == "Rank3Query":
            assert d["change"] == "HypothesisFailed r=None: planted", d
        elif name != "bound":  # each h0_* of a query that was not built
            assert d["change"] == differential.SKIPPED, d
    assert len(points) > 100 and summary["differences"] == 5 * len(points)
    names = {"bound", "Rank3Query", "h0_rank3_semistable_bound", "h0_prop21_bound",
             "h0_rank3_unstable_bound"}
    assert all(at_point == names for at_point in points.values())
    assert summary["by_call"] == {name: len(points) for name in names}


def test_the_argv_grid_reaches_the_bound_line(tmp_path):
    # no session argv and no library call goes through cli: only the named
    # argv grid can see this fault
    base, change = _copy(tmp_path, "base"), _copy(tmp_path, "change")
    path = change / "clifford3" / "cli.py"
    text = path.read_text()
    unpack = "value, case, exact, assumptions = r._values"
    assert text.count(unpack) == 1
    path.write_text(text.replace(unpack, "value, case, _, assumptions = r._values\n"
                                         "    exact = r._values[3]"))
    summary = differential.compare(sys.executable, base, change, "smoke", [])
    assert summary["session_argvs"] == 0 and summary["grid_argvs"] > 400
    assert summary["differences"] > 0
    assert all(d["call"].startswith("cli.main(['bound'") for d in summary["first"])


def test_the_argv_grid_reaches_every_rank2_mode():
    # rank 2 with s1 < 0 is a mode of its own, which reads neither flag
    head = ["bound", "--genus", "3", "--rank", "2"]
    rank2 = {(int(a[8]), tuple(a[9:])) for a in differential.argv_grid([3]) if a[:5] == head}
    flags = [(), ("--hyperelliptic",), ("--delta",)]
    assert rank2 == set(product(range(-6, 7), flags))


def test_checkout_is_a_temporary_worktree():
    try:
        differential._git("rev-parse", "--verify", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    with differential.checkout("HEAD") as path:
        assert (path / "src" / "clifford3" / "bounds.py").is_file()
        assert str(path) in differential._git("worktree", "list")
    assert not path.exists()
    assert str(path) not in differential._git("worktree", "list")


def test_every_twisted_dual_point_lists_an_accepted_s1f():
    # where s2 < 0 <= s1, s1f is the twisted dual's, whose least value
    # (2*s1 - s2)/3 can lie above the fixed window [-g-2, g+2]; the sweep
    # lists it, so every such point of the smoke grid has a query built
    from clifford3 import BundleInvariants, Curve, Rank3Query
    from clifford3.errors import Clifford3Error

    def accepted(c, inv, s1f):
        try:
            Rank3Query(c, inv, s1f=s1f)
        except Clifford3Error:
            return False
        return True

    points = only_added = 0
    for g in differential.GRIDS["smoke"]:
        c = Curve(g)
        for d, (s1, s2) in differential.rank3_grid(g):
            if not s2 < 0 <= s1 or (s1 - d) % 3 or (s2 - 2 * d) % 3:
                continue
            inv = BundleInvariants(3, d, (s1, s2))
            sweep = differential.s1f_sweep(g, d, (s1, s2))
            assert sweep[0] is None
            listed = [s1f for s1f in sweep[1:] if accepted(c, inv, s1f)]
            assert listed, (g, d, s1, s2, sweep)
            points += 1
            only_added += all(s1f > g + 2 for s1f in listed)
    assert points > 100 and only_added > 0
