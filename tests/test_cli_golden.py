"""The ``repro.cli`` package keeps the surface of the module it replaced.

``tests/fixtures/cli_golden.json`` holds, for the recipe in
:mod:`tests.cli_golden_recipe`, every sub-command's option surface and the
normalized output of every documented invocation, recorded on the commit
*before* ``src/repro/cli.py`` became a package.  Replaying the recipe must
reproduce both, except for the differences listed in :data:`PERMITTED` —
each one a fix the rewrite was asked to make, asserted here as the exact
edit of the recorded output rather than waved through.
"""

from __future__ import annotations

import json

import pytest

from .cli_golden_recipe import FIXTURE_PATH, parser_surface, run_invocations


@pytest.fixture(scope="module")
def stored() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


@pytest.fixture(scope="module")
def replayed() -> dict:
    return json.loads(json.dumps(run_invocations()))


def _with_kwargs_on_the_method_line(lines: list[str]) -> list[str]:
    """`repro query` prints the effective build kwargs for every method."""
    return [
        line.replace("method : mindex [", "method : mindex {'n_pivots': 16} [")
        for line in lines
    ]


def _with_the_export_appended(lines: list[str], now: list[str]) -> list[str]:
    """`--metrics` is honoured under `--plan`: the export follows the costs."""
    export = now[len(lines):]
    assert any("repro_distance_evaluations_total" in line for line in export)
    return lines + export


#: ``{run id: recorded stdout -> expected stdout}`` (takes the replayed
#: stdout as well, for output that did not exist before).
PERMITTED = {
    "query-mindex": lambda was, now: _with_kwargs_on_the_method_line(was),
    "plan-metrics": _with_the_export_appended,
}


def test_every_sub_command_keeps_its_options(stored) -> None:
    surface = json.loads(json.dumps(parser_surface()))
    assert sorted(surface) == sorted(stored["surface"])
    for path, options in stored["surface"].items():
        assert surface[path] == options, path


def test_every_documented_invocation_prints_what_it_printed(stored, replayed) -> None:
    assert sorted(replayed) == sorted(stored["runs"])
    for name, was in stored["runs"].items():
        now = replayed[name]
        assert now["code"] == was["code"], name
        expected = was["stdout"]
        if name in PERMITTED:
            expected = PERMITTED[name](was["stdout"], now["stdout"])
            assert expected != was["stdout"], f"{name}: the permitted diff is gone"
        assert now["stdout"] == expected, name
