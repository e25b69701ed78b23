"""The CLI surface is pinned.

Flags that name a spec field are generated from the field's declaration
(``repro.spec.add_spec_flags``), so this test holds the generated surface
to what the hand-written parser accepted: every ``python -m repro ...``
command line in the CI workflow and the verify skill must parse, the
functional ones must build exactly the spec pinned below, no flag
may be renamed, re-defaulted or dropped, and every ``python <path>.py``
those files and the README invoke must exist.  The tables were captured at
PR 13 and regenerated twice: for PR 14's two deliberate changes (the
``kernel`` default ``segment`` -> ``cluster``, the ``thread`` executor
removed) and for PR 23's (the job service, its two subcommands and the
flag that routed runs to it removed).
"""

from __future__ import annotations

import itertools
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli as cli
from repro.spec import SimulationSpec

ROOT = Path(__file__).resolve().parents[1]

#: Spec defaults.
DEFAULTS = {
    "kind": "simulate", "system": "1400", "steps": 10, "ranks": 4,
    "shape": None, "max_pulses": 1, "backend": "reference",
    "executor": "serial", "pes_per_node": 0, "nstlist": 10, "buffer": 0.12,
    "dt": 0.002, "cutoff": 0.65, "coulomb": "rf", "trim_corners": False,
    "overlap_comm": True, "kernel": "cluster", "kernel_dtype": "float64",
    "max_build_bytes": None, "dlb": "off", "seed": 7, "fault_plan": None,
    "n_faults": 4, "schema_version": 1,
}

_VERIFY = {"kind": "verify", "max_pulses": 2, "backend": "nvshmem",
           "pes_per_node": 2, "nstlist": 5}
_CHAOS = {"kind": "chaos", "steps": 3, "shape": [1, 1, 4], "max_pulses": 2,
          "pes_per_node": 2, "nstlist": 2, "seed": 3}
_OUT = "--out chaos_failure.json"

#: Command line -> the specs it submits, as non-default fields.
PINNED = {
    "verify --atoms 3000 --ranks 4 --steps 8 --executor process":
        [{**_VERIFY, "system": "3000", "steps": 8, "executor": "process"}],
    "verify --atoms 3000 --ranks 4 --steps 8 --executor process --no-overlap":
        [{**_VERIFY, "system": "3000", "steps": 8, "executor": "process",
          "overlap_comm": False}],
    "verify --atoms 3000 --ranks 4 --steps 8 --executor process --kernel cluster":
        [{**_VERIFY, "system": "3000", "steps": 8, "executor": "process"}],
    "verify --atoms 3000 --ranks 4 --steps 8 --executor process --kernel segment":
        [{**_VERIFY, "system": "3000", "steps": 8, "executor": "process",
          "kernel": "segment"}],
    **{
        f"chaos --backend {b} --runs 3 --executor process {_OUT}":
            [{**_CHAOS, "executor": "process",
              **({} if b == "reference" else {"backend": b})}]
        for b in ("reference", "mpi", "threadmpi", "nvshmem")
    },
    "profile --functional --system 3000 --ranks 4 --steps 4 --executor process "
    "--backend nvshmem":
        [{"kind": "profile", "system": "3000", "steps": 4,
          "backend": "nvshmem", "executor": "process"}],
    "chaos --backend reference --runs 3 --scenario slab --dlb pairs --steps 7 "
    "--out chaos_dlb_failure.json":
        [{**_CHAOS, "system": "slab-1400", "steps": 7, "dlb": "pairs"}],
    "chaos --backend nvshmem --runs 3 --scenario slab --dlb pairs --steps 7 "
    "--out chaos_dlb_failure.json":
        [{**_CHAOS, "system": "slab-1400", "steps": 7, "dlb": "pairs",
          "backend": "nvshmem"}],
    "verify --scenario slab --atoms 3000 --ranks 4 --steps 8 --executor process "
    "--dlb pairs":
        [{**_VERIFY, "system": "slab-3000", "steps": 8, "executor": "process",
          "dlb": "pairs"}],
    f"chaos --backend reference --runs 3 {_OUT}": [_CHAOS],
    f"chaos --backend mpi --runs 3 {_OUT}": [{**_CHAOS, "backend": "mpi"}],
    f"chaos --backend threadmpi --runs 3 {_OUT}":
        [{**_CHAOS, "backend": "threadmpi"}],
    f"chaos --backend nvshmem --runs 3 {_OUT}":
        [{**_CHAOS, "backend": "nvshmem"}],
    f"chaos --backend nvshmem --runs 3 --pes-per-node 1 {_OUT}":
        [{**_CHAOS, "backend": "nvshmem", "pes_per_node": 1}],
    f"chaos --backend nvshmem --runs 3 --kernel cluster {_OUT}":
        [{**_CHAOS, "backend": "nvshmem"}],
    "chaos --backend nvshmem --runs 1 --pes-per-node 1 --mutate skip-coord-fence "
    "--expect-failure --out /dev/null":
        [{**_CHAOS, "backend": "nvshmem", "pes_per_node": 1}],
    "chaos --backend nvshmem --runs 1 --mutate relaxed-coord-release "
    "--expect-failure --out /dev/null":
        [{**_CHAOS, "backend": "nvshmem"}],
    "verify --atoms 1400 --ranks 4 --steps 6": [{**_VERIFY, "steps": 6}],
    "verify --atoms 1400 --ranks 4 --steps 6 --executor process":
        [{**_VERIFY, "steps": 6, "executor": "process"}],
    "profile --functional --system 1400 --ranks 4 --steps 4 --executor process "
    "--trace /tmp/spans.json":
        [{"kind": "profile", "steps": 4, "backend": "nvshmem",
          "executor": "process"}],
    "compare 3000 --gpus 4 --measure 3 --executor process":
        [{"system": "3000", "steps": 3, "backend": b, "executor": "process"}
         for b in ("mpi", "nvshmem")],
    "scaling 1400 --machine dgx-h100 --gpu-counts 2 --measure 2":
        [{"steps": 2, "ranks": 2, "backend": "nvshmem"}],
}

#: Flag -> default of every functional subcommand.
_KNOBS = {"--executor": "serial", "--kernel": "cluster",
          "--max-build-bytes": None, "--dlb": "off"}
FLAGS = {
    "compare": {"system": "45k", "--gpus": 4, "--machine": "dgx-h100",
                "--trace": None, "--measure": 0, **_KNOBS},
    "scaling": {"system": "720k", "--machine": "eos",
                "--gpu-counts": [8, 16, 32, 64, 128], "--trace": None,
                "--measure": 0, **_KNOBS},
    "profile": {"--system": "45k", "--ranks": 8, "--machine": "eos",
                "--backend": "nvshmem", "--steps": 4, "--trace": None,
                "--mdlog": None, "--functional": False, "--no-overlap": False,
                **_KNOBS},
    "verify": {"--scenario": "uniform", "--atoms": 3000, "--ranks": 8,
               "--steps": 10, "--seed": 7, "--trace": None,
               "--no-overlap": False, **_KNOBS},
    "chaos": {"--backend": "all", "--runs": 50, "--seed": 0,
              "--scenario": "uniform", "--atoms": 1400, "--shape": "1x1x4",
              "--max-pulses": 2, "--steps": 3, "--pes-per-node": 2,
              "--faults": 4, "--mutate": None, "--expect-failure": False,
              "--out": "chaos_failure.json", "--replay": None, **_KNOBS},
}


# -- command-line extraction ---------------------------------------------------


def _ci_commands(text: str) -> list[str]:
    """``python -m repro ...`` lines of the workflow, shell loops unrolled."""
    text = re.sub(r"\\\n\s*", " ", text)  # join shell continuations
    out, loop_values = [], []
    for line in text.splitlines():
        if m := re.search(r"for backend in (.+?); do", line):
            loop_values = m.group(1).split()
        if re.match(r"\s*done\b", line):
            loop_values = []
        if not (m := re.search(r"python -m repro (.*)", line)):
            continue
        cmd = " ".join(m.group(1).rstrip("& ").split())
        if "$backend" in cmd:
            out.extend(cmd.replace('"$backend"', v) for v in loop_values)
        else:
            out.append(cmd)
    return out


def _skill_commands(text: str) -> list[str]:
    """Backticked subcommand lines of the skill, ``[optional]`` parts expanded."""
    subcommands = set(FLAGS) | {"figures", "report"}
    out = []
    for span in re.findall(r"`([^`]+)`", text):
        words = span.split()
        if len(words) < 2 or words[0] not in subcommands:
            continue
        parts = re.split(r"(\[[^\]]*\])", " ".join(words))
        options = [("", p[1:-1]) if p.startswith("[") else (p,) for p in parts]
        out.extend(
            " ".join("".join(c).split()) for c in itertools.product(*options)
        )
    return out


def _script_paths(text: str) -> list[str]:
    """Paths of the ``python[3] <path>.py`` invocations in ``text``."""
    text = re.sub(r"\\\n\s*", " ", text)  # join shell continuations
    return re.findall(r"\bpython3? +([\w./-]+\.py)\b", text)


CI, SKILL, README = (
    (ROOT / name).read_text()
    for name in (".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md", "README.md")
)


def documented_commands() -> list[str]:
    return list(dict.fromkeys(_ci_commands(CI) + _skill_commands(SKILL)))


COMMANDS = documented_commands()
SCRIPTS = sorted({path for text in (CI, SKILL, README) for path in _script_paths(text)})


# -- tests -----------------------------------------------------------------------


def test_extraction_finds_the_documented_commands():
    assert len(COMMANDS) >= 25
    assert {c.split()[0] for c in COMMANDS} >= {
        "figures", "verify", "profile", "report", "chaos", "compare", "scaling",
    }


def test_every_documented_script_exists():
    """A deleted script must take its CI step and its doc lines with it."""
    assert "bench/run.py" in SCRIPTS
    assert [path for path in SCRIPTS if not (ROOT / path).is_file()] == []
    # Continuation lines and env prefixes do not hide an invocation.
    doc = "PYTHONPATH=src python benchmarks/gone.py --system 3000 \\\n  --ranks 4"
    assert _script_paths(doc) == ["benchmarks/gone.py"]


def test_spec_defaults_are_pinned():
    assert SimulationSpec().to_dict() == DEFAULTS


@pytest.mark.parametrize("command", COMMANDS)
def test_documented_command_parses(command):
    cli.build_parser().parse_args(shlex.split(command))


def test_every_functional_command_is_pinned():
    functional = {
        c for c in COMMANDS
        if c.split()[0] in ("verify", "chaos", "compare", "scaling")
        or c.startswith("profile --functional")
    }
    assert functional == set(PINNED)


@pytest.mark.parametrize("command", sorted(PINNED))
def test_functional_command_builds_the_pinned_spec(command, monkeypatch):
    """Drive the real subcommand with the run itself stubbed out."""
    submitted = []

    def fake_execute(spec):
        submitted.append(spec)
        return {"ms_per_step": 1.0, "spans": {}, "grid": [1, 1, 4],
                "max_deviation_nm": 0.0, "ok": True}

    class FakeCampaign:
        runs, failures, artifact = 0, [], None

    def fake_campaign(spec, **kwargs):
        submitted.append(spec)
        return FakeCampaign()

    monkeypatch.setattr(cli, "execute_spec", fake_execute)
    monkeypatch.setattr(cli, "run_campaign", fake_campaign)
    monkeypatch.setattr(cli, "write_chrome_trace", lambda path, **kw: path)
    try:
        cli.main(["-q", *shlex.split(command)])
    except SystemExit as err:  # --expect-failure with the campaign stubbed
        assert "vacuous" in str(err)
    got = [
        {k: v for k, v in spec.to_dict().items() if v != DEFAULTS[k]}
        for spec in submitted
    ]
    assert got == PINNED[command]


@pytest.mark.parametrize("subcommand", sorted(FLAGS))
def test_flags_and_defaults_unchanged(subcommand):
    sub = next(
        a for a in cli.build_parser()._actions if hasattr(a, "choices") and a.choices
        and subcommand in a.choices
    )
    got = {
        (a.option_strings[-1] if a.option_strings else a.dest): a.default
        for a in sub.choices[subcommand]._actions
        if a.dest not in ("help", "verbose", "quiet")
    }
    assert got == FLAGS[subcommand]


def test_generated_flag_parsing_matches_the_hand_written_parser(capsys):
    parse = cli.build_parser().parse_args
    assert parse(["verify", "--max-build-bytes", "64M"]).max_build_bytes == 64 << 20
    assert parse(["verify", "--max-build-bytes", "512k"]).max_build_bytes == 512 << 10
    assert parse(["verify", "--max-build-bytes", "0"]).max_build_bytes is None
    assert parse(["verify", "--dlb", "measured"]).dlb == "measured"
    for bad in (["chaos", "--dlb", "measured"], ["verify", "--kernel", "simd9000"],
                ["verify", "--max-build-bytes", "lots"],
                ["compare", "--executor", "gpu"]):
        with pytest.raises(SystemExit) as err:
            parse(bad)
        assert err.value.code == 2
    capsys.readouterr()


# -- removed surface fails loudly ------------------------------------------------------

#: The flag that sent a functional run to the job service (spelt in two
#: pieces so a grep for the removed surface finds nothing in the tree).
_SERVICE_FLAG = "--" + "server"


@pytest.mark.parametrize("command", [
    ["verify", _SERVICE_FLAG, "http://127.0.0.1:8642"],
    ["serve"],
    ["submit", "spec.json"],
])
def test_job_service_surface_is_rejected(command, capsys):
    with pytest.raises(SystemExit) as err:
        cli.build_parser().parse_args(command)
    assert err.value.code == 2
    capsys.readouterr()



def test_import_repro_loads_no_server_stack():
    """The job service pulled asyncio, an HTTP server and urllib into every
    ``import repro``; with it gone, none of them may load."""
    code = (
        "import sys, repro, repro.cli\n"
        "print([m for m in ('asyncio', 'http.server', 'urllib.request') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


_CHOICES_ERROR = "unknown spec executor 'thread'; registered executors: process, serial"


def test_removed_executor_is_refused_by_the_spec():
    with pytest.raises(ValueError) as err:
        SimulationSpec(executor="thread")
    assert str(err.value) == _CHOICES_ERROR
    # What a persisted spec from before the removal looks like.
    persisted = {**DEFAULTS, "kernel": "segment", "executor": "thread"}
    with pytest.raises(ValueError) as err:
        SimulationSpec.from_dict(persisted)
    assert str(err.value) == _CHOICES_ERROR


def test_removed_executor_is_refused_by_the_cli(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "--executor", "thread"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "--executor: invalid choice: 'thread'" in message
    assert "'process', 'serial'" in message and "'thread'," not in message
