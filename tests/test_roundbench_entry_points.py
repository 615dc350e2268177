"""The round benchmark's wrapped entry points still exist.

``roundbench/tracing.py`` wraps program functions by their names; a
rename would otherwise surface only when the benchmark runs.  Installing
and removing every wrapper here fails the suite instead.
"""

from pathlib import Path

ROUNDBENCH = Path(__file__).resolve().parent.parent / "roundbench"


def test_every_wrapped_entry_point_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROUNDBENCH))
    import tracing

    from repro.sync.session import SyncSession

    scan = SyncSession.__dict__["_still_justified"]
    originals = tracing.install(tracing.Recorder())
    try:
        assert len(originals) == len(tracing.ENTRY_POINTS) + len(
            tracing.COUNTED_ONLY
        )
        assert SyncSession.__dict__["_still_justified"] is not scan
    finally:
        tracing.uninstall(originals)
    assert SyncSession.__dict__["_still_justified"] is scan
