"""Boundary fuzzer: every command on instances whose affectance sums lie
within a few ulps of 1.

The geometry is that of the float-order instances in ``test_harness``:
alpha 1, beta 1, no noise, uniform power, and a victim link of length 100
from the origin along the x axis.  An interferer whose sender lies at
distance d from the victim's receiver puts affectance 100 / d on it.
Three interferers lie on rays out of that receiver, at distances whose
affectances sum to 1, each distance moved by a few ulps.  The victim is a
fourth link for ``solve`` and ``oracle``, and the primary for ``admit``
and ``oracle --problem admission``.  Each command must exit 0 with its
output verified, or refuse the input with exit status 2 and one line.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from sinrcap.cli import main as cli_main

VICTIM = {"id": 3, "sx": 0.0, "sy": 0.0, "rx": 100.0, "ry": 0.0}
RAYS = tuple(k * math.pi / 4 for k in range(-3, 4))  # every direction but back along the victim
SHARED = ["--power", "uniform"]
ROUNDED = SHARED + ["--trials", "10", "--sweep", "0.5,1,2"]
COMMANDS = (
    [("links", ["solve", "--algo", algo, "--formulation", form, *ROUNDED])
     for algo in ("lp", "greedy", "greedy_w", "greedy_l")
     for form in ("capacity", "qos", "weighted")]
    + [("primary", ["admit", "--method", method, *ROUNDED]) for method in ("general", "large")]
    + [("links", ["oracle", *SHARED]), ("primary", ["oracle", "--problem", "admission", *SHARED])]
)


@st.composite
def boundary_instances(draw):
    """(links, primary) instance dicts of one boundary geometry."""
    shares = [draw(st.integers(1, 20)) for _ in range(3)]
    interferers = []
    for i, share in enumerate(shares):
        d = 100.0 * sum(shares) / share  # affectance share / sum on the victim
        d += draw(st.integers(-3, 3)) * math.ulp(d)
        ray = draw(st.sampled_from(RAYS))
        length = draw(st.sampled_from((1.0, 2.0, 3.0)))
        sx, sy = 100.0 + d * math.cos(ray), d * math.sin(ray)
        interferers.append({"id": i, "sx": sx, "sy": sy,
                            "rx": sx + length * math.cos(ray), "ry": sy + length * math.sin(ray)})
    model = {"alpha": 1.0, "beta": 1.0, "noise": 0.0}
    return ({**model, "links": interferers + [VICTIM]},
            {**model, "links": interferers, "primaries": [{**VICTIM, "power": 1.0}]})


def _run(argv):
    """(exit status, stdout, stderr) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli_main(argv)
        except SystemExit as exc:
            status = exc.code
    return status, out.getvalue(), err.getvalue()


@given(instances=boundary_instances())
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
def test_every_command_verifies_or_refuses_at_the_boundary(tmp_path_factory, instances):
    paths = {}
    for name, instance in zip(("links", "primary"), instances):
        paths[name] = tmp_path_factory.mktemp("boundary") / f"{name}.json"
        paths[name].write_text(json.dumps(instance))
    for name, command in COMMANDS:
        argv = [command[0], str(paths[name]), *command[1:]]
        status, out, err = _run(argv)
        if status == 2:
            assert err.startswith(f"sinrcap {command[0]}: error: "), argv
            assert err.count("\n") == 1, argv
        else:
            assert status == 0, (argv, err)
            assert json.loads(out)["verified"] is True, argv
