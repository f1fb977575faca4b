"""The check harness: one timed, named result per check, a raise is a failure."""

from klproj import checks


def test_run_all_gives_one_named_result_per_check(monkeypatch):
    def passing_stub():
        return True, "fine"

    def raising_stub():
        raise ValueError("boom")

    monkeypatch.setattr(checks, "ALL_CHECKS", (passing_stub, raising_stub))
    results = checks.run_all()
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("passing_stub", True, "fine"),
        ("raising_stub", False, "raised ValueError: boom"),
    ]
    assert all(r.elapsed_s >= 0.0 for r in results)
