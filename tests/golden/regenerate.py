"""Regenerate the committed golden traces (waveforms + event streams).

Usage (from the repo root)::

    PYTHONPATH=src python tests/golden/regenerate.py

Only run this when the physics, the pipeline behavior, the feature values,
the forest, the dispatcher, ZEBRA or the model format is intentionally
changed; the resulting ``fig3_waveforms.npz`` / ``stream_traces.json`` /
``classify_traces.json`` / ``dispatch_traces.json`` / ``model_pin.json``
diffs are the review artifacts that show what moved.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.golden.cases import GOLDEN_PATH, build_golden_scenes  # noqa: E402
from tests.golden.classify_cases import (  # noqa: E402
    CLASSIFY_TRACES_PATH,
    MODEL_PIN_PATH,
    build_model_pin,
    build_traces,
    write_model_pin,
    write_traces as write_classify_traces,
)
from tests.golden.dispatch_cases import (  # noqa: E402
    DISPATCH_TRACES_PATH,
    build_traces as build_dispatch_traces,
    write_traces as write_dispatch_traces,
)
from tests.golden.robustness_fixture import (  # noqa: E402
    ROBUSTNESS_CURVE_PATH,
    build_sweep_inputs,
    run_sweep,
    write_curve,
)
from tests.golden.stream_cases import (  # noqa: E402
    STREAM_TRACES_PATH,
    build_stream_cases,
    trace_events,
    write_traces,
)


def main() -> int:
    generator, scenes = build_golden_scenes()
    engine = generator.sampler.engine
    arrays = {name: engine.photocurrents_ua(scene)
              for name, scene in scenes}
    np.savez_compressed(GOLDEN_PATH, **arrays)
    total = sum(a.size for a in arrays.values())
    print(f"wrote {len(arrays)} traces ({total} values) -> {GOLDEN_PATH}")

    traces = {name: trace_events(frames)
              for name, frames in build_stream_cases()}
    write_traces(traces)
    n_events = sum(len(lines) for lines in traces.values())
    print(f"wrote {len(traces)} event traces ({n_events} events) "
          f"-> {STREAM_TRACES_PATH}")

    classify = build_traces()
    write_classify_traces(classify)
    print(f"wrote {len(classify['features'])} feature rows and "
          f"{len(classify['events'])} detector event traces "
          f"-> {CLASSIFY_TRACES_PATH}")
    dispatch = build_dispatch_traces()
    write_dispatch_traces(dispatch)
    print(f"wrote {len(dispatch['pairs'])} dispatch inputs and "
          f"{len(dispatch['adversarial'])} adversarial ones "
          f"-> {DISPATCH_TRACES_PATH}")
    write_model_pin(build_model_pin())
    print(f"wrote model-format pin -> {MODEL_PIN_PATH}")

    corpus, schedule = build_sweep_inputs()
    payload = run_sweep(corpus, schedule, block_size=1)
    write_curve(payload)
    print(f"wrote {len(payload['points'])}-point robustness curve "
          f"-> {ROBUSTNESS_CURVE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
