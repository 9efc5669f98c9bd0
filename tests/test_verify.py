"""Verification battery: how the checks set up their oracle runs."""

from __future__ import annotations

import filcol.verify as verify
from filcol import Params


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


def test_oracle_grid_rows_identical_serial_and_pooled():
    p = Params(0.2, verify.mid_subcritical_gamma(0.2))
    nodes = [-2.0 + 4.0 * k / 3 for k in range(4)]
    serial = verify.classifier_oracle_grid(p, nodes, nodes, workers=1)
    pooled = verify.classifier_oracle_grid(p, nodes, nodes, workers=2)
    assert len(serial) == 16
    assert pooled == serial
