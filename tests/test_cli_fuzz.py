"""The CLI's contract on any config: exit 0, 1 or 2, and never a traceback.

Configs are drawn from the schema's grammar (see :mod:`thermobounds.cli`), in
which any leaf, and any object, may instead be any JSON value or be missing.
Every subcommand runs on each config through ``cli.main``, in process.  No
draw starts large work: verify runs on a small grid, and a sweep count is
either small or above ``MAX_SWEEP_ROWS``, which the CLI refuses.
"""

import json
import re

from hypothesis import HealthCheck, given, settings, strategies as st

from thermobounds.cli import MAX_SWEEP_ROWS, main
from thermobounds.errors import InputError

MISSING = object()  # a key left out of its object


def _names(cls) -> set[str]:
    return {cls.__name__}.union(*(_names(sub) for sub in cls.__subclasses__()))


INPUT_ERRORS = _names(InputError)

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=4) | st.floats()
    | st.integers(min_value=-(10**400), max_value=10**400),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=4,
)


def _starts_large_work(value) -> bool:
    """A sweep count that the CLI accepts (or rounds) to more than a few rows."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 5 < value <= MAX_SWEEP_ROWS)


def field(plausible, anything=ANY_JSON):
    """A value the schema accepts there, or one time in 40 each any JSON value or none."""
    kinds = {19: anything, 20: st.just(MISSING)}
    return st.integers(0, 39).flatmap(lambda kind: kinds.get(kind, plausible))


def document(**fields):
    """A JSON object of these fields, without those drawn as missing."""
    return st.fixed_dictionaries(fields).map(
        lambda doc: {key: value for key, value in doc.items() if value is not MISSING})


MODULUS = st.floats(0.2, 5.0) | st.floats(0.0, 1e308, exclude_min=True)
PHASE = field(document(k=field(MODULUS), mu=field(MODULUS), h=field(st.floats(-2.0, 2.0))))
COUNT = field(st.integers(2, 5), st.integers(MAX_SWEEP_ROWS + 1, 10**20)
              | ANY_JSON.filter(lambda value: not _starts_large_work(value)))
RANGE = document(start=field(st.floats(-10.0, 0.0)), stop=field(st.floats(0.5, 10.0)),
                 count=COUNT)
AXIS = field(st.floats(-10.0, 10.0) | RANGE)
CONFIG = field(document(
    phase1=PHASE, phase2=PHASE, theta1=field(st.floats(0.05, 0.95)),
    loading=field(document(sigma0=AXIS, deltaT=AXIS)),
))
P = field(st.sampled_from(("2", "inf", "1.5")), st.sampled_from(("1", "nan", "x")))
FORMAT = st.sampled_from(("csv", "json"))


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(config=CONFIG, fmt=FORMAT, phase=st.sampled_from(("1", "2", "max")), p=P,
       target=st.sampled_from(("phase1", "phase2", "max")),
       grid_n=field(st.sampled_from(("16", "17")), st.just("15")), residuals=st.booleans())
def test_every_subcommand_exits_0_1_or_2_without_a_traceback(
    tmp_path, capsys, config, fmt, phase, p, target, grid_n, residuals
):
    path, out_path = tmp_path / "config.json", tmp_path / "rows.out"
    # json.dumps writes NaN and Infinity, which Python's JSON parser reads back
    path.write_text("" if config is MISSING else json.dumps(config))
    bound = ["--phase", phase, *(["--p", p] if p is not MISSING else [])]
    commands = [
        ["bounds", *bound],
        ["table", "--target", target],
        ["verify", *(["--grid-n", grid_n] if grid_n is not MISSING else [])],
        ["sweep", "--out", str(out_path), *bound, *(["--residuals"] if residuals else [])],
    ]
    for command in commands:
        out_path.unlink(missing_ok=True)
        code = main([*command, str(path), "--format", fmt])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), command
        assert "Traceback" not in err
        if code == 2:
            error = re.fullmatch(r"error: (\w+): [^\n]*\n", err)
            assert error and error[1] in INPUT_ERRORS, (command, err)
            assert out == "" and not out_path.exists()
