import json
import os
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import egalloc
from conftest import nested_truncations
from egalloc.cli import main

EX_LORENZ = {
    "items": ["x", "y"],
    "agents": [
        {"name": "p1", "valuation": {"demand": ["x", "y"]}},
        {"name": "p2", "valuation": {"demand": ["x", "y"]}},
        {"name": "p3", "valuation": {"demand": ["x", "y"]}},
    ],
}

LEVELED = {
    "items": ["L", "H"],
    "epsilon": "1/20",
    "agents": [
        {"name": "p1", "valuation": {"values": {"L": "1", "H": "1"}}},
        {"name": "p2", "valuation": {"values": {"L": "1", "H": "21/20"}}},
    ],
}

MEPS3 = {
    "items": ["a", "b", "c"],
    "epsilon": "1/60",
    "agents": [
        {"name": "p1", "valuation": {"demand": ["a", "b", "c"]}},
        {"name": "p2", "valuation": {"demand": ["a", "b", "c"]}},
    ],
}


@pytest.fixture
def write_doc(tmp_path):
    def _write(doc, name="inst.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_pe(write_doc, capsys):
    code, out, _ = run_cli(capsys, "solve", "--mech", "pe", "--in", write_doc(EX_LORENZ))
    assert code == 0
    doc = json.loads(out)
    assert doc["utilities"] == {"p1": "1", "p2": "1", "p3": "0"}
    assert doc["sorted_utilities"] == ["0", "1", "1"]
    assert doc["priority"] == ["p1", "p2", "p3"]
    assert doc["audit"]["EFX"]["holds"] is True


def test_solve_priority_flag(write_doc, capsys):
    code, out, _ = run_cli(
        capsys,
        "solve", "--mech", "pe", "--in", write_doc(EX_LORENZ), "--priority", "p3,p2,p1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["utilities"] == {"p1": "0", "p2": "1", "p3": "1"}


def test_distribution_meps_atoms(write_doc, capsys):
    code, out, _ = run_cli(capsys, "distribution", "--mech", "meps", "--in", write_doc(MEPS3))
    assert code == 0
    doc = json.loads(out)
    assert doc["atom_count"] == 18
    assert all(atom["weight"] == "1/18" for atom in doc["atoms"])


def test_distribution_rpe(write_doc, capsys):
    code, out, _ = run_cli(
        capsys, "distribution", "--mech", "rpe", "--in", write_doc(EX_LORENZ)
    )
    assert code == 0
    assert json.loads(out)["atom_count"] == 6


def test_solve_has_no_exact_flag(write_doc, capsys):
    # `distribution` is the one command that prints an exact distribution
    code, out, _ = run_cli(
        capsys, "solve", "--mech", "rpe", "--exact", "--in", write_doc(EX_LORENZ)
    )
    assert code == 2
    assert out == ""


def test_sampled_solve_is_seed_deterministic(write_doc, capsys):
    path = write_doc(EX_LORENZ)
    _, out1, _ = run_cli(capsys, "solve", "--mech", "rpe", "--in", path, "--seed", "5")
    _, out2, _ = run_cli(capsys, "solve", "--mech", "rpe", "--in", path, "--seed", "5")
    assert out1 == out2


def test_audit_pass_and_fail(write_doc, capsys, tmp_path):
    inst_path = write_doc(EX_LORENZ)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"allocation": {"p1": ["x"], "p2": ["y"]}}))
    code, out, _ = run_cli(capsys, "audit", "--in", inst_path, "--alloc", str(good))
    assert code == 0
    doc = json.loads(out)
    assert doc["properties"]["EF1"]["holds"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"allocation": {"p1": ["x", "y"]}}))
    code, out, _ = run_cli(capsys, "audit", "--in", inst_path, "--alloc", str(bad))
    assert code == 1
    doc = json.loads(out)
    assert doc["properties"]["EF1"]["holds"] is False
    assert doc["properties"]["EF1"]["witness"] is not None


def test_audit_alpha_flag(write_doc, capsys, tmp_path):
    inst_path = write_doc(EX_LORENZ)
    skew = tmp_path / "skew.json"
    skew.write_text(json.dumps({"allocation": {"p1": ["x", "y"]}}))
    code, _, _ = run_cli(
        capsys, "audit", "--in", inst_path, "--alloc", str(skew), "--alpha", "1/3"
    )
    assert code == 1  # maximin still fails for the other agents


def test_fuzz_floor_pe_witness(write_doc, capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "--mech", "pe", "--in", write_doc(LEVELED), "--deviator", "p2"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["truthful"] is False
    assert doc["witness"]["report"]["demand"] == ["H"]
    assert doc["witness"]["gain"] == "1/20"


def test_fuzz_meps_truthful(write_doc, capsys):
    code, out, _ = run_cli(
        capsys,
        "fuzz", "--mech", "meps", "--in", write_doc(LEVELED),
        "--deviator", "p2", "--expectation",
    )
    assert code == 0
    assert json.loads(out)["truthful"] is True


def test_fixture_command(capsys):
    code, out, _ = run_cli(capsys, "fixture", "--id", "F2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["computed"]["maximin_agent1"] == "3"
    assert doc["computed"]["pe_utilities"] == [2, 2]


def test_fixture_unknown_id(capsys):
    code, _, err = run_cli(capsys, "fixture", "--id", "F42")
    assert code == 2
    assert "unknown fixture" in err


def test_enumerate_command(write_doc, capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--in", write_doc(EX_LORENZ))
    assert code == 0
    doc = json.loads(out)
    assert doc["max_welfare"] == "2"
    assert doc["min_potential_vectors"] == [["1", "1", "0"]]


def test_enumerate_capability_exit(write_doc, capsys):
    big = {
        "items": [f"i{k}" for k in range(7)],
        "agents": [{"name": "a", "valuation": {"demand": [f"i{k}" for k in range(7)]}}],
    }
    code, _, err = run_cli(capsys, "enumerate", "--in", write_doc(big))
    assert code == 3
    assert "cap" in err


def test_usage_errors(write_doc, capsys):
    code, _, _ = run_cli(capsys, "solve", "--mech", "nope", "--in", "x.json")
    assert code == 2
    code, _, err = run_cli(capsys, "solve", "--mech", "pe", "--in", "/nonexistent.json")
    assert code == 2
    code, _, err = run_cli(
        capsys, "fuzz", "--mech", "pe", "--in", write_doc(EX_LORENZ), "--deviator", "zz"
    )
    assert code == 2


def test_meps_rejects_matroid_valuations(write_doc, capsys):
    doc = {
        "items": ["a"],
        "agents": [
            {"name": "x", "valuation": {"matroid": {"type": "free", "demand": ["a"]}}}
        ],
    }
    code, _, err = run_cli(capsys, "solve", "--mech", "meps", "--in", write_doc(doc))
    assert code == 2
    assert "demand-set" in err


UNIFORM_AGENT = {
    "items": ["a", "b", "c"],
    "agents": [
        {"name": "x", "valuation": {"demand": ["a", "b"]}},
        {
            "name": "y",
            "valuation": {"matroid": {"type": "uniform", "demand": ["b", "c"], "cap": 1}},
        },
    ],
}


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "--mech", "meps"),
        ("distribution", "--mech", "meps"),
        ("fuzz", "--mech", "meps", "--deviator", "x", "--expectation"),
    ],
    ids=["solve", "distribution", "fuzz"],
)
def test_every_meps_command_rejects_a_matroid_agent(write_doc, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--in", write_doc(UNIFORM_AGENT))
    assert code == 2
    assert out == ""
    assert "demand-set" in err


def test_audit_reports_a_skipped_maximin_check(write_doc, capsys, tmp_path):
    # matroid valuations over 11 items: past the brute-force maximin cap (m <= 10)
    items = [f"i{k}" for k in range(11)]
    free = {"matroid": {"type": "free", "demand": items}}
    inst = {"items": items, "agents": [{"name": n, "valuation": free} for n in ("p", "q")]}
    alloc = tmp_path / "alloc.json"
    alloc.write_text(json.dumps({"allocation": {"p": items[:6], "q": items[6:]}}))
    code, out, _ = run_cli(capsys, "audit", "--in", write_doc(inst), "--alloc", str(alloc))
    assert code == 0  # EF1 and EFX hold; the skipped check does not fail the audit
    maximin = json.loads(out)["properties"]["maximin"]
    assert maximin["holds"] is None
    assert "maximin brute force capped" in maximin["skipped"]


def test_deeply_nested_document_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(nested_truncations(3000))
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "solve", "--mech", "pe", "--in", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "nests too deeply" in err


def _explicit_document(n_items, sets):
    items = [f"i{k}" for k in range(n_items)]
    matroid = {"type": "explicit", "independent": [[items[k] for k in t] for t in sets]}
    return {"items": items, "agents": [{"name": "p1", "valuation": {"matroid": matroid}}]}


@pytest.mark.parametrize(
    "doc",
    [
        # one 30-item set: its downward closure would have 2^30 members
        _explicit_document(30, [range(30)]),
        # 20,000 distinct 3-item sets; 51 is the fewest items that hold that many
        _explicit_document(51, list(combinations(range(51), 3))[:20000]),
    ],
    ids=["one-30-item-set", "20000-three-item-sets"],
)
def test_oversized_explicit_family_is_capped_quickly(doc, write_doc, capsys):
    path = write_doc(doc)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "solve", "--mech", "pe", "--in", path)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "validation cap" in err


def _explicit(*sets):
    return {"type": "explicit", "independent": [list(t) for t in sets]}


# two agents hold one explicit family each, a third holds a truncation and a
# restriction of one more, and the fourth is additive: three family objects
EXPLICIT_AGENTS = {
    "items": ["a", "b", "c", "d"],
    "agents": [
        {"name": "p1", "valuation": {"matroid": _explicit("ab", "ac", "bc")}},
        {"name": "p2", "valuation": {"matroid": _explicit("cd", "ad", "ac")}},
        {
            "name": "p3",
            "valuation": {
                "matroid": {
                    "type": "truncated",
                    "limit": 1,
                    "inner": {
                        "type": "restricted",
                        "demand": list("abd"),
                        "inner": _explicit("abd"),
                    },
                }
            },
        },
        {"name": "p4", "valuation": {"demand": ["d"]}},
    ],
}


def test_solve_scans_each_explicit_family_once(write_doc, capsys, monkeypatch):
    import egalloc.matroid as matroid

    scanned = []
    original = matroid._validate_explicit

    def counting(spec):
        scanned.append(spec)
        return original(spec)

    monkeypatch.setattr(matroid, "_validate_explicit", counting)
    code, out, _ = run_cli(capsys, "solve", "--mech", "pe", "--in", write_doc(EXPLICIT_AGENTS))
    assert code == 0
    assert json.loads(out)["utilities"] == {"p1": "1", "p2": "1", "p3": "1", "p4": "1"}
    # parsing validates each family and PE's sanitizing reuses that verdict
    assert len(scanned) == 3
    assert len(set(map(id, scanned))) == 3


@pytest.mark.parametrize(
    "agent, expected",
    [
        # the maximal sets differ in size
        (
            {"matroid": _explicit("a", "bc")},
            "error: agents[0].valuation: invalid (exchange fails, witness ((0,), (1, 2)))\n",
        ),
        # one size, four exchange violations; the first in scan order is reported
        (
            {
                "matroid": {
                    "type": "restricted",
                    "demand": list("abc"),
                    "inner": _explicit("ab", "cd"),
                }
            },
            "error: agents[0].valuation: invalid (exchange fails, witness ((0,), (2, 3)))\n",
        ),
    ],
    ids=["sizes", "exchange"],
)
def test_non_matroid_explicit_document_stderr_is_pinned(agent, expected, write_doc, capsys):
    doc = {
        "items": ["a", "b", "c", "d"],
        "agents": [
            {"name": "p1", "valuation": agent},
            {"name": "p2", "valuation": {"demand": ["a"]}},
        ],
    }
    code, out, err = run_cli(capsys, "solve", "--mech", "pe", "--in", write_doc(doc))
    assert (code, out, err) == (2, "", expected)


def _additive_document(n, m):
    items = [f"i{k}" for k in range(m)]
    agents = [
        {"name": f"a{v}", "valuation": {"demand": [x for k, x in enumerate(items) if (k + v) % 3]}}
        for v in range(n)
    ]
    return {"items": items, "agents": agents}


# 6 agents over 12 items: m^2 * n! = 103,680 atoms, above the exact cap
MEPS_6_12 = _additive_document(6, 12)


@pytest.mark.parametrize("argv", [("distribution", "--mech", "meps")], ids=["distribution"])
def test_oversized_exact_meps_is_capped_quickly(argv, write_doc, capsys):
    path = write_doc(MEPS_6_12)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv, "--in", path)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "103680 atoms" in err and "cap is 10000" in err


# (candidate reports + 1) x atoms per report, against the 10,000-atom cap:
# meps 4/12 builds 4,097 distributions of 12^2 * 4! = 3,456 atoms,
# rpe 6/6 builds 65 of 6! = 720 (46,800 atoms in all)
@pytest.mark.parametrize(
    "mech, n, m, total", [("meps", 4, 12, 14159232), ("rpe", 6, 6, 46800)], ids=["meps", "rpe"]
)
def test_oversized_fuzz_is_capped_quickly(mech, n, m, total, tmp_path):
    (tmp_path / "inst.json").write_text(json.dumps(_additive_document(n, m)))
    argv = ["fuzz", "--mech", mech, "--expectation", "--space", "subsets"]
    env = {**os.environ, "PYTHONPATH": str(Path(egalloc.__file__).parents[1])}
    start = time.perf_counter()
    # a fresh interpreter with a timeout, so that an uncapped run fails
    # this test rather than hanging it
    proc = subprocess.run(
        [sys.executable, "-m", "egalloc", *argv, "--in", "inst.json", "--deviator", "a0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert f"({total} in all); the cap is 10000" in proc.stderr


# EF fails first at (p1, p2), EFX at (p2, p3) on item g, EF1 at (p3, p2).
STAGGERED = {
    "items": ["a", "b", "c", "d", "e", "f", "g"],
    "agents": [
        {"name": "p1", "valuation": {"demand": ["a", "b", "c"]}},
        {"name": "p2", "valuation": {"demand": ["a", "b", "d", "e", "f"]}},
        {"name": "p3", "valuation": {"demand": ["a", "b"]}},
    ],
}
STAGGERED_ALLOCATION = {"allocation": {"p1": ["c"], "p2": ["a", "b"], "p3": ["d", "e", "f", "g"]}}


def _envy(envier, envied, item, own, required):
    witness = {
        "envier": envier, "envied": envied, "item": item,
        "own_value": own, "required": required,
    }
    return {"holds": False, "witness": witness}


@pytest.mark.parametrize(
    "alpha, expected",
    [
        (
            None,
            {
                "EF": _envy(0, 1, None, "1", "2"),
                "EF1": _envy(2, 1, None, "0", "1"),
                "EFX": _envy(1, 2, 6, "2", "3"),
                "maximin": {"holds": True, "witness": None},
            },
        ),
        (
            "1/2",
            {
                "EF": _envy(2, 1, None, "0", "1"),
                "EF1": _envy(2, 1, None, "0", "1/2"),
                "EFX": _envy(2, 1, 0, "0", "1/2"),
                "maximin": {"holds": True, "witness": None},
            },
        ),
    ],
    ids=["alpha-1", "alpha-1/2"],
)
def test_audit_witnesses_are_pinned(alpha, expected, write_doc, capsys):
    argv = [
        "audit",
        "--in", write_doc(STAGGERED),
        "--alloc", write_doc(STAGGERED_ALLOCATION, "alloc.json"),
    ]
    if alpha is not None:
        argv += ["--alpha", alpha]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out)["properties"] == expected


@pytest.mark.parametrize("exc", [RecursionError("maximum recursion depth exceeded"), MemoryError()])
def test_stack_or_memory_exhaustion_is_a_capability_exit(exc, monkeypatch, capsys):
    import egalloc.cli as cli

    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_fixture", exhausted)
    code, out, err = run_cli(capsys, "fixture", "--id", "F1")
    assert code == 3
    assert out == ""
    assert err.startswith("capability cap exceeded: ") and type(exc).__name__ in err
    assert err.count("\n") == 1 and "Traceback" not in err


def run_fresh(*argv, cwd):
    """Run `python -m egalloc` in a fresh interpreter: a `cli` with no state."""
    env = {**os.environ, "PYTHONPATH": str(Path(egalloc.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "egalloc", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=30,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_leaks_nothing_between_calls(write_doc, capsys, monkeypatch, tmp_path):
    # help text wraps at the terminal width; pin it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    inst = write_doc(EX_LORENZ)
    alloc = write_doc({"allocation": {"p1": ["x"], "p2": ["y"]}}, "alloc.json")
    sequence = [
        ("solve", "--mech", "nope", "--in", inst),
        ("solve", "--help"),
        ("solve", "--mech", "rpe", "--seed", "5", "--in", inst),
        ("solve", "--mech", "rpe", "--in", inst),
        ("audit", "--in", inst, "--alloc", alloc),
        ("fixture", "--id", "F1"),
    ]
    in_process = [run_cli(capsys, *argv) for argv in sequence]
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0, 0, 0]
    assert json.loads(in_process[3][1])["seed"] == 0
    assert in_process == [run_fresh(*argv, cwd=tmp_path) for argv in sequence]


def test_main_builds_each_parser_once(write_doc, capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    inst = write_doc(EX_LORENZ)
    for argv in [
        ("solve", "--mech", "pe", "--in", inst),
        ("solve", "--mech", "nope"),
        ("solve", "--help"),
        ("fixture", "--id", "F1"),
        ("solve", "--mech", "rpe", "--in", inst),
    ]:
        main(list(argv))
    capsys.readouterr()
    # the first call of the process builds the tree; later calls reuse it
    assert len(built) == len(set(built)), built


@pytest.mark.parametrize(
    "argv, code, stream, prefix",
    [
        ((), 2, "stderr", "usage: egalloc [-h]"),
        (("solve", "--help"), 0, "stdout", "usage: egalloc solve [-h]"),
    ],
    ids=["no-arguments", "solve-help"],
)
def test_module_entry_point_keeps_its_prog_names(argv, code, stream, prefix, tmp_path):
    got_code, out, err = run_fresh(*argv, cwd=tmp_path)
    text = out if stream == "stdout" else err
    assert got_code == code
    assert text.startswith(prefix), text


@pytest.mark.parametrize(
    "argv",
    [("fuzz", "--mech", "rpe"), ("fuzz", "--mech", "meps"), ("fuzz", "--mech", "pe", "--expectation")],
    ids=["rpe-without-flag", "meps-without-flag", "pe-with-flag"],
)
def test_fuzz_expectation_flag_pairs_with_the_mechanism(argv, write_doc, capsys):
    code, out, err = run_cli(capsys, *argv, "--in", write_doc(MEPS3), "--deviator", "p1")
    assert code == 2
    assert out == ""
    assert "--expectation" in err


def _one_agent(valuation, **extra):
    return {"items": ["x", "y"], "agents": [{"name": "p", "valuation": valuation}], **extra}


def _doc(doc):
    return json.dumps(doc).encode()


TWO_AGENTS = {
    "items": ["x"],
    "agents": [{"name": n, "valuation": {"demand": ["x"]}} for n in ("p1", "p2")],
}
GOOD_ALLOCATION = _doc({"allocation": {"p1": ["x"]}})
NOT_UTF8 = b'\xff\xfe{"items": []}'
PARTITION_WITH_DICT = {"type": "partition", "blocks": [{"items": [{}], "cap": 1}]}

# (instance bytes, allocation bytes or None for `solve`, extra argv)
HOSTILE = {
    "nested-demand-id": (_doc(_one_agent({"demand": [["x"]]})), None, ()),
    "dict-in-partition-block": (_doc(_one_agent({"matroid": PARTITION_WITH_DICT})), None, ()),
    "dict-in-xos-set": (_doc(_one_agent({"xos": [["x", {"y": 1}]]})), None, ()),
    "nested-allocation-id": (_doc(TWO_AGENTS), _doc({"allocation": {"p1": [["x"]]}}), ()),
    "mixed-type-priority": (_doc({**TWO_AGENTS, "priority": [1, "p1"]}), None, ()),
    "non-utf8-instance": (NOT_UTF8, None, ()),
    "non-utf8-allocation": (_doc(TWO_AGENTS), NOT_UTF8, ()),
    "huge-exponent-value": (
        _doc(_one_agent({"values": {"x": "1e999999999"}}, epsilon="1/10")), None, ()
    ),
    "huge-exponent-epsilon": (
        _doc(_one_agent({"demand": ["x"]}, epsilon="1e-999999999")), None, ()
    ),
    "integer-past-digit-limit": (b'{"items": ["x"], "epsilon": 1' + b"0" * 5000 + b"}", None, ()),
    "alpha-not-a-number": (_doc(TWO_AGENTS), GOOD_ALLOCATION, ("--alpha", "abc")),
    "alpha-zero-denominator": (_doc(TWO_AGENTS), GOOD_ALLOCATION, ("--alpha", "1/0")),
    "alpha-huge-exponent": (_doc(TWO_AGENTS), GOOD_ALLOCATION, ("--alpha", "1e-9999999999")),
}


@pytest.mark.parametrize("case", list(HOSTILE))
def test_hostile_input_is_a_short_usage_error(case, tmp_path):
    instance, allocation, extra = HOSTILE[case]
    (tmp_path / "inst.json").write_bytes(instance)
    if allocation is None:
        argv = ["solve", "--mech", "pe", "--in", "inst.json"]
    else:
        (tmp_path / "alloc.json").write_bytes(allocation)
        argv = ["audit", "--in", "inst.json", "--alloc", "alloc.json"]
    env = {**os.environ, "PYTHONPATH": str(Path(egalloc.__file__).parents[1])}
    start = time.perf_counter()
    # a fresh interpreter, so that a traceback would reach stderr; the
    # timeout ends a run that hangs
    proc = subprocess.run(
        [sys.executable, "-m", "egalloc", *argv, *extra],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=5,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode in (2, 3), proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
