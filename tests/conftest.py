import io
import re
import sys
from pathlib import Path

import pytest
from hypothesis import settings

TESTS_DIR = Path(__file__).resolve().parent
REPO_DIR = TESTS_DIR.parent
EXAMPLE_DIR = REPO_DIR / "example_pinctrl"

sys.path.insert(0, str(TESTS_DIR))  # for refeval

# Every property test draws the same examples on every run, and none has a
# time limit; each test sets only its own ``max_examples``.
settings.register_profile("ssi", derandomize=True, deadline=None)
settings.load_profile("ssi")

from ssi.config import build_session, load_config  # noqa: e402
from ssi.interp import Interp  # noqa: e402
from ssi.islands import Corpus, parse_hole_as_block  # noqa: e402
from ssi.memory import Location  # noqa: e402
from ssi.repl import Repl  # noqa: e402
from ssi.session import Frame, Session  # noqa: e402
from ssi.values import Concrete, ValueTable, to_int  # noqa: e402


def make_session(sources, **kwargs):
    """Session + interpreter over in-memory named sources."""
    corpus = Corpus.from_sources(sources)
    session = Session(corpus, **kwargs)
    return session, Interp(session)


def run_function(session, interp, name, args=()):
    """Execute a corpus function directly and return its (kept) frame."""
    fdef = session.corpus.find_function(name)
    assert fdef is not None, f"no function {name}"
    frame = Frame(name)
    session.frames.append(frame)
    nodes = parse_hole_as_block(session.corpus, fdef.body, session.rules,
                                session.on_parse)
    interp.exec_block(nodes, frame)
    session.frames.pop()
    return frame


def record_mints(monkeypatch):
    """The list of every Value minted from now on, in order: each
    ``ValueTable.mint`` is kept, and so kept alive, as it returns."""
    minted = []
    mint = ValueTable.mint

    def recording(self, *args, **kwargs):
        v = mint(self, *args, **kwargs)
        minted.append(v)
        return v

    monkeypatch.setattr(ValueTable, "mint", recording)
    return minted


def local_concrete(session, frame, name):
    """The int a local of ``frame`` holds: a held local's value, or its
    cell's. A held local outlives its call here, so a frame kept after its
    call returned still reads."""
    slot = frame.locals[name]
    v = slot.value if slot.held and slot.value is not None else \
        session.store.load(Location(slot.region, slot.offset), slot.width)
    r = session.values.resolve(v)
    assert isinstance(r, Concrete), f"{name} did not resolve concretely: {r}"
    return to_int(r)


def run_example_script(config_name, script_lines, without_models=(),
                       branch_policy="fail"):
    """(transcript, exit code, session) for a scripted run of the bundled SSI."""
    config = load_config(EXAMPLE_DIR / config_name)
    session, interp = build_session(config, branch_policy=branch_policy,
                                    without_models=without_models)
    out = io.StringIO()
    inp = io.StringIO("".join(line + "\n" for line in script_lines))
    code = Repl(session, interp, inp, out, interactive=False).run()
    return out.getvalue(), code, session


def printed_by(transcript, heads=("trace", "xc")):
    """``[command, lines it printed]`` for each command of a batch transcript
    whose first word is one of ``heads``, in order."""
    out, lines = [], None
    for line in transcript.splitlines():
        if line.startswith("ssi > "):
            command = line[len("ssi > "):]
            lines = [] if command.split(" ")[0] in heads else None
            if lines is not None:
                out.append([command, lines])
        elif line.startswith("ssi ::"):
            lines = None
        elif lines is not None:
            lines.append(line)
    return out


def script_lines(script_name):
    path = EXAMPLE_DIR / "scripts" / script_name
    return path.read_text().splitlines()


def golden_pattern(golden_name):
    text = (EXAMPLE_DIR / "golden" / golden_name).read_text()
    pattern = re.escape(text)
    pattern = pattern.replace(re.escape("{{LINE}}"), r"\d+")
    pattern = pattern.replace(re.escape("{{REGION}}"), r"\d+")
    return pattern


def assert_matches_golden(output, golden_name):
    pattern = golden_pattern(golden_name)
    assert re.fullmatch(pattern, output), (
        f"transcript does not match {golden_name}:\n{output}"
    )


@pytest.fixture
def pinctrl_probe():
    return run_example_script("pinctrl.json", script_lines("probe.txt"))
