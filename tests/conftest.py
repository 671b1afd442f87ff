import contextlib
import io
import time

import pytest

from covertnet import load_edge_list
from covertnet.cli import main as cli_main


@pytest.fixture(scope="session")
def synthesized_reference_bytes(tmp_path_factory):
    """Build the default reference network once through the CLI.

    Returns (edge-list bytes, build_seconds). The wall time belongs to
    the criterion that checks synthesis, not to later criteria that
    only reuse the result.
    """
    out_dir = tmp_path_factory.mktemp("reference-build")
    out_path = out_dir / "chiapas.edges"
    sink = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        code = cli_main(["synthesize", "--output", str(out_path)])
    elapsed = time.perf_counter() - started
    assert code == 0, sink.getvalue()
    return out_path.read_bytes(), elapsed


@pytest.fixture(scope="session")
def synthesized_reference(synthesized_reference_bytes):
    """The session-built reference network as (graph, build_seconds)."""
    data, elapsed = synthesized_reference_bytes
    return load_edge_list(data.decode("utf-8")), elapsed
