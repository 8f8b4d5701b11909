"""The necessity trial table: each row runs the CLI's criterion for its
setting and reaches the oracle through the module at call time."""

from importlib import import_module

from picklab import cli, necessity, oracle

ORACLE_CALLS = ("eval_point", "eval_ltoa", "eval_rtoa", "eval_tensor", "eval_ball_ltoa",
                "eval_quiver_tensor", "eval_quiver_ltoa", "sample_contractive_poly")


def test_rows_run_the_cli_entry_points():
    enum = cli._schema("request.schema.json")["properties"]["setting"]["enum"]
    assert set(necessity.SETTINGS) <= set(enum)
    for setting in necessity.SETTINGS:
        criterion = necessity._TRIALS[setting][-1]
        module, function, _ = cli._SETTINGS[setting]
        entry = getattr(import_module(f"picklab.{module}"), function)
        assert getattr(criterion, "func", criterion) is entry, setting


def test_rows_call_the_oracle_through_the_module(monkeypatch):
    calls = dict.fromkeys(ORACLE_CALLS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ORACLE_CALLS:
        monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
    for setting in necessity.SETTINGS:
        assert necessity.run_trial(setting, 0).margin >= 0, setting
    assert all(calls.values()), calls
    assert calls["sample_contractive_poly"] == len(necessity.SETTINGS)
