"""Property tests: malformed input ends in one error line, never a traceback.

Each strategy corrupts a valid generating-vector file, mesh file or
config in a way that is malformed by construction, runs the command that
reads it through ``cli.main`` and checks the exit status (1 or 2) and that
stderr holds exactly one ``error[CODE]: ...`` line.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from fracuq.cli import main
from fracuq.fem import save_mesh, triangulate_unit_square
from fracuq.qmc import cbc_rule, save_gen_vector

FUZZ = settings(max_examples=40, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

ERROR_LINE = re.compile(r"error\[E_[A-Z]+\]: .+")


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_one_error(code, err):
    assert code in (1, 2)
    lines = err.splitlines()
    assert len(lines) == 1 and ERROR_LINE.fullmatch(lines[0]), err


def is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# a word that cannot stand for a number or a line tag
WORDS = st.text(alphabet="abcdefhijkxyz_-.,;:!?", min_size=1, max_size=6).filter(
    lambda w: not is_number(w))


def replace_token(lines: list[str], where, word: str) -> list[str]:
    """Replace one whitespace-separated token, chosen by ``where``, with word."""
    spots = [(i, k) for i, line in enumerate(lines) for k in range(len(line.split()))]
    i, k = spots[where(len(spots))]
    tokens = lines[i].split()
    tokens[k] = word
    return lines[:i] + [" ".join(tokens)] + lines[i + 1:]


def pick(draw_index):
    return lambda n: draw_index % n


# ---------------------------------------------------------------------------
# generating vectors

GENVEC_ARGS = ["--b", "2", "--m", "2", "--beta", "2", "--z", "2"]


def genvec_lines(tmp: Path) -> list[str]:
    path = tmp / "valid.txt"
    save_gen_vector(cbc_rule(2, 2, 2, 2, np.array([1.0, 0.5])), path)
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


GENVEC_CORRUPTIONS = st.one_of(
    st.tuples(st.just("token"), st.integers(0, 10 ** 6), WORDS),
    st.tuples(st.just("drop"), st.integers(0, 10 ** 6), st.none()),
    st.tuples(st.just("repeat"), st.integers(0, 10 ** 6), st.none()),
)


@FUZZ
@given(GENVEC_CORRUPTIONS)
def test_malformed_genvec(corruption):
    kind, where, word = corruption
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = genvec_lines(tmp)
        i = where % len(lines)
        if kind == "token":
            lines = replace_token(lines, pick(where), word)
        elif kind == "drop":
            lines = lines[:i] + lines[i + 1:]
        else:
            lines = lines[:i + 1] + lines[i:]
        path = tmp / "genvec.txt"
        path.write_text("\n".join(lines) + "\n")
        assert_one_error(*run(["points", *GENVEC_ARGS, "--genvec", str(path)]))


# ---------------------------------------------------------------------------
# meshes

def base_config(tmp: Path, **sections) -> dict:
    cfg = {
        "model": {"alpha": 0.5},
        "field": {"type": "example", "q": 2},
        "space": {"n_div": 2},
        "time": {"n_steps": 2},
        "qmc": {"m": 1, "beta": 1},
        "output": {"dir": str(tmp / "out"), "prefix": "fuzz"},
    }
    for name, sub in sections.items():
        cfg[name].update(sub)
    return cfg


MESH_CORRUPTIONS = st.one_of(
    st.tuples(st.just("token"), st.integers(0, 10 ** 6), WORDS),
    st.tuples(st.just("truncate"), st.integers(1, 10 ** 6), st.none()),
    st.tuples(st.just("index"), st.integers(0, 10 ** 6),
              st.one_of(st.integers(-10 ** 20, -1), st.integers(9, 10 ** 20))),
    st.tuples(st.just("count"), st.integers(0, 1),
              st.one_of(st.integers(-10 ** 20, -1), st.integers(100, 10 ** 20))),
)


@FUZZ
@given(MESH_CORRUPTIONS)
def test_malformed_mesh(corruption):
    kind, where, value = corruption
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "mesh.txt"
        save_mesh(triangulate_unit_square(2), path)      # 9 vertices, 8 triangles
        lines = path.read_text().splitlines()
        if kind == "token":
            lines = replace_token(lines, pick(where), value)
        elif kind == "truncate":
            tokens = " ".join(lines).split()
            lines = [" ".join(tokens[: -(1 + where % len(tokens))])]
        elif kind == "index":
            row = 11 + where % 8                         # a triangle line
            tokens = lines[row].split()
            tokens[where % 3] = str(value)
            lines[row] = " ".join(tokens)
        else:
            lines[0 if where == 0 else 10] = str(value)  # vertex or triangle count
        path.write_text("\n".join(lines) + "\n")
        cfg = tmp / "run.json"
        cfg.write_text(json.dumps(base_config(tmp, space={"n_div": None,
                                                          "mesh_path": str(path)})))
        assert_one_error(*run(["check", "--config", str(cfg)]))


# ---------------------------------------------------------------------------
# configs

# every key by the kind of its values
INT_KEYS = [("time", "n_steps"), ("qmc", "b"), ("qmc", "m"), ("qmc", "beta"), ("field", "q"),
            ("field", "z"), ("space", "n_div"), ("estimator", "threads")]
FLOAT_KEYS = [("model", "alpha"), ("model", "T"), ("time", "gamma"), ("estimator", "fast_eps"),
              ("field", "kappa0_const"), ("field", "kappa0_xy")]
BOOL_KEYS = [("field", "sort_by_norm"), ("estimator", "fast_history"),
             ("output", "dump_fields"), ("output", "gnuplot")]
STR_KEYS = [("field", "type"), ("space", "mesh_path"), ("qmc", "genvec"), ("qmc", "shift"),
            ("output", "dir"), ("output", "prefix")]
NUMERIC_KEYS = INT_KEYS + FLOAT_KEYS
# null asks for a default (the grading 2/alpha, the full truncation, the
# thread count of 1) or is unused by the example field, so it
# is no corruption there
NULLABLE_KEYS = {("time", "gamma"), ("field", "z"), ("estimator", "threads"),
                 ("field", "kappa0_const")}
SECTIONS = ["model", "field", "space", "time", "qmc", "estimator", "output"]
NOT_A_NUMBER = st.one_of(WORDS, st.none(), st.lists(st.integers(), max_size=3),
                         st.dictionaries(WORDS, st.integers(), max_size=2))
NOT_AN_OBJECT = st.one_of(st.integers(), WORDS, st.lists(st.integers(), max_size=3))
NOT_WHOLE = st.one_of(st.booleans(), st.floats().filter(lambda x: not x.is_integer()))
NOT_FINITE = st.sampled_from(["inf", "-inf", "nan", "Infinity", "-Infinity", "NaN", "1e999"])
NOT_A_STRING = st.one_of(st.integers(), st.floats(), st.lists(st.integers(), max_size=3))

CONFIG_CORRUPTIONS = st.one_of(
    st.tuples(st.just("value"), st.sampled_from(NUMERIC_KEYS), NOT_A_NUMBER),
    st.tuples(st.just("override"), st.sampled_from(NUMERIC_KEYS), WORDS),
    st.tuples(st.just("value"), st.sampled_from(INT_KEYS), NOT_WHOLE),
    st.tuples(st.just("override"), st.sampled_from(FLOAT_KEYS), NOT_FINITE),
    st.tuples(st.just("value"), st.sampled_from(BOOL_KEYS), st.text(max_size=6)),
    st.tuples(st.just("value"), st.sampled_from(STR_KEYS), NOT_A_STRING),
    st.tuples(st.just("key"), st.sampled_from(SECTIONS), WORDS),
    st.tuples(st.just("section"), st.sampled_from(SECTIONS), NOT_AN_OBJECT),
    st.tuples(st.just("extra"), st.none(), WORDS),
    st.tuples(st.just("root"), st.none(), NOT_AN_OBJECT),
    st.tuples(st.just("text"), st.none(), st.integers(1, 10 ** 6)),
)


@FUZZ
@given(CONFIG_CORRUPTIONS)
@example(("section", "model", 3))
def test_malformed_config(corruption):
    kind, where, value = corruption
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = base_config(tmp)
        argv = []
        if kind == "value":
            assume(value is not None or where not in NULLABLE_KEYS)
            cfg.setdefault(where[0], {})[where[1]] = value
        elif kind == "override":
            argv = ["--set", f"{where[0]}.{where[1]}={value}"]
        elif kind == "key":
            cfg.setdefault(where, {})["~" + value] = 1
        elif kind == "section":
            cfg[where] = value
        elif kind == "extra":
            cfg["~" + value] = {}
        elif kind == "root":
            cfg = value
        text = json.dumps(cfg)
        if kind == "text":
            text = text[: -(1 + value % len(text))]      # a proper prefix of an object
        path = tmp / "run.json"
        path.write_text(text)
        assert_one_error(*run(["check", "--config", str(path), *argv]))
