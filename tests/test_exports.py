from __future__ import annotations

import graphsynth


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from graphsynth import *", namespace)
    missing = [name for name in graphsynth.__all__ if name not in namespace]
    assert missing == []
    assert len(graphsynth.__all__) == len(set(graphsynth.__all__))
