"""Golden-trace equivalence: the radiometric engine against frozen waveforms.

Two locks, per the batching contract (``docs/API.md``):

* **regression** — the scalar :meth:`RadiometricEngine.photocurrents_ua`
  must keep reproducing the committed Fig. 3-style reference traces
  (``tests/golden/fig3_waveforms.npz``) exactly; any physics drift shows
  up as a golden diff, never silently;
* **equivalence** — the batched :meth:`photocurrents_batch_ua` must match
  the scalar path bit for bit on the same scenes, for every batch
  grouping.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.golden.cases import GOLDEN_PATH, build_golden_scenes


@pytest.fixture(scope="module")
def golden():
    generator, scenes = build_golden_scenes()
    with np.load(GOLDEN_PATH) as data:
        committed = {name: data[name] for name in data.files}
    return generator.sampler.engine, scenes, committed


class TestGoldenRegression:
    def test_golden_file_covers_all_cases(self, golden):
        _, scenes, committed = golden
        assert sorted(committed) == sorted(name for name, _ in scenes)

    def test_scalar_reproduces_committed_traces(self, golden):
        engine, scenes, committed = golden
        for name, scene in scenes:
            current = engine.photocurrents_ua(scene)
            np.testing.assert_allclose(
                current, committed[name], rtol=0.0, atol=1e-12,
                err_msg=f"scalar engine drifted on golden trace {name!r}")

    def test_traces_are_physical(self, golden):
        _, _, committed = golden
        for name, trace in committed.items():
            assert trace.ndim == 2 and trace.shape[1] == 3, name
            assert np.all(np.isfinite(trace)), name
            assert np.all(trace > 0.0), name  # static floor + ambient


class TestBatchedEquivalence:
    def test_batched_matches_scalar_elementwise(self, golden):
        engine, scenes, _ = golden
        batched = engine.photocurrents_batch_ua([s for _, s in scenes])
        for (name, scene), batch_out in zip(scenes, batched):
            scalar_out = engine.photocurrents_ua(scene)
            assert np.array_equal(batch_out, scalar_out), (
                f"{name}: max abs diff "
                f"{np.max(np.abs(batch_out - scalar_out)):g}")

    def test_batched_matches_committed_golden(self, golden):
        engine, scenes, committed = golden
        batched = engine.photocurrents_batch_ua([s for _, s in scenes])
        for (name, _), batch_out in zip(scenes, batched):
            np.testing.assert_allclose(
                batch_out, committed[name], rtol=0.0, atol=1e-9,
                err_msg=f"batched engine drifted on golden trace {name!r}")

    def test_grouping_invariance(self, golden):
        """Any batch split yields the same bits as the full batch."""
        engine, scenes, _ = golden
        all_scenes = [s for _, s in scenes]
        full = engine.photocurrents_batch_ua(all_scenes)
        for split in (1, 2, 4):
            parts = []
            for i in range(0, len(all_scenes), split):
                parts.extend(
                    engine.photocurrents_batch_ua(all_scenes[i:i + split]))
            for name_scene, a, b in zip(scenes, full, parts):
                assert np.array_equal(a, b), (
                    f"batch split {split} changed bits on "
                    f"{name_scene[0]!r}")

    def test_empty_batch(self, golden):
        engine, _, _ = golden
        assert engine.photocurrents_batch_ua([]) == []
