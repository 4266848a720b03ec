"""``repro tune`` refuses bad arguments before it builds a suite."""

from __future__ import annotations

import pytest

from repro.tune import cli as tune_cli


class SearchCalled(Exception):
    pass


@pytest.fixture
def search_kwargs(monkeypatch):
    """Replace the search with a stub that records its arguments."""
    seen: dict = {}

    def stub(**kwargs):
        seen.update(kwargs)
        raise SearchCalled

    monkeypatch.setattr(tune_cli, "run_tune", stub)
    return seen


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--budget", "-5"], "argument --budget: must be positive and finite"),
        (["--budget", "0"], "argument --budget: must be positive and finite"),
        (["--budget", "nan"], "argument --budget: must be positive and finite"),
        (["--budget", "inf"], "argument --budget: must be positive and finite"),
        (["--budget", "lots"], "argument --budget: not a number"),
        (["--scale", "huge"], "argument --scale: invalid choice: 'huge'"),
        (["--families", "nosuch"], "argument --families: invalid choice: 'nosuch'"),
        (["--families", "rmat", "nosuch"], "invalid choice: 'nosuch'"),
    ],
)
def test_bad_argument_exits_2_before_search(
    argv, message, search_kwargs, capsys, tmp_path
):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as exc:
        tune_cli.main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert search_kwargs == {} and not out.exists()


def test_good_arguments_reach_the_search(search_kwargs, tmp_path):
    with pytest.raises(SearchCalled):
        tune_cli.main(
            [
                "--scale", "small", "--budget", "2.5",
                "--families", "rmat", "usa-road",
                "--out", str(tmp_path / "r.json"),
            ]
        )
    assert search_kwargs["scale"] == "small"
    assert search_kwargs["budget_percent"] == 2.5
    assert search_kwargs["families"] == ["rmat", "usa-road"]

