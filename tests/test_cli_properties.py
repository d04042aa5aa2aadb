"""Property tests of the CLI over the valid parameter box.

Every command line drawn here is valid, so each run must either succeed
(exit 0) or report an approximation breakdown at its operating point
(exit 3); none may end in an internal error (exit 1). The examples are
derandomized so that every run of the suite checks the same command lines.
"""
import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from pmtcount.cli import EXIT_BREAKDOWN, EXIT_OK, main

RATE = st.floats(0.0, 30.0)
SIGNAL = st.floats(0.01, 30.0)
PERIOD = st.integers(1, 200).map(lambda n: 1.0 / n)
# design puts tau on multiples of T below 1, so it needs T < 1.
DESIGN_PERIOD = st.integers(2, 200).map(lambda n: 1.0 / n)
TAU = st.floats(0.001, 0.99)
XI = st.floats(0.01, 3.0)
SIGMA = st.floats(0.0, 1.0)
SIGMA0 = st.floats(0.0, 0.5)
RECEIVER = {"T": PERIOD, "tau": TAU, "xi": XI, "sigma": SIGMA,
            "sigma0": SIGMA0}
MC = {"trials": st.integers(1, 2000), "seed": st.integers(0, 2**64),
      "workers": st.integers(1, 2)}
# Values of the parameter each MC command sweeps; ber's is its --sweep.
SWEPT = {"sweep-sampling": PERIOD, "sweep-noise": SIGMA, "approx-params": XI}
BER_SWEPT = {"xi": XI, "tau": TAU, "lambda_s": SIGNAL}
SWITCHES = {"design": "--full-path", "ber": "--mc-fitted-rule"}


def _flags(draw, strategies):
    """One --key flag per strategy with a drawn value; a drawn list gives
    the flag several values."""
    argv = []
    for key, strategy in strategies.items():
        value = draw(strategy)
        argv += [f"--{key}",
                 *map(str, value if isinstance(value, list) else [value])]
    return argv


def _values(strategy):
    return st.lists(strategy, min_size=1, max_size=3)


@st.composite
def _argv(draw, command):
    """A valid command line for `command`; MC runs take <= 2000 trials."""
    argv = [command]
    if command in ("design", "ber"):
        lambda0 = draw(st.floats(0.0, 5.0))
        argv += ["--lambda0", str(lambda0),
                 "--lambda1", str(lambda0 + draw(SIGNAL))]
    else:
        argv += ["--lambda", str(draw(RATE))]
    if command == "pmf":
        argv += _flags(draw, {"tau": TAU})
    elif command == "design":
        argv += _flags(draw, dict(RECEIVER, T=DESIGN_PERIOD))
    else:
        argv += _flags(draw, RECEIVER)
    if command in SWITCHES and draw(st.booleans()):
        argv.append(SWITCHES[command])
    if command in SWEPT:
        argv += _flags(draw, {"values": _values(SWEPT[command])})
    if command == "ber":
        sweep = draw(st.sampled_from([None, *BER_SWEPT]))
        if sweep:
            argv += ["--sweep", sweep,
                     *_flags(draw, {"values": _values(BER_SWEPT[sweep])})]
    if command in SWEPT or command == "ber":
        argv += _flags(draw, MC)
    return argv


@pytest.mark.parametrize("command", ["pmf", "moments", "design",
                                     "sweep-sampling", "sweep-noise",
                                     "approx-params", "ber"])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_valid_command_line_exits_0_or_3(command, data):
    argv = data.draw(_argv(command), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_BREAKDOWN), err.getvalue()
