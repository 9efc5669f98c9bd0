"""Verification battery: how the checks set up their oracle runs."""

from __future__ import annotations

import filcol.verify as verify


def test_gamma1_exact_horizon_follows_derived_time(monkeypatch):
    horizons = []
    real = verify.simulate_until_collision

    def spy(rs, p, cfg=None, **kwargs):
        horizons.append(kwargs["t_end"])
        return real(rs, p, cfg, **kwargs)

    monkeypatch.setattr(verify, "simulate_until_collision", spy)
    report = verify.run_battery(alpha=0.2, selection=["gamma1-exact-time"])
    (check,) = report["checks"]
    measured = check["measured"]
    assert check["passed"]
    assert measured["derived_value"] == 1.0
    assert measured["printed_value"] == 4.0  # the stated constant stays reported
    assert horizons == [2.0 * measured["derived_value"] + 10.0]
