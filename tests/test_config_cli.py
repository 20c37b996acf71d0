import io
import json

import pytest

from conftest import EXAMPLE_DIR
from ssi.cli import main
from ssi.config import build_session, load_config
from ssi.errors import ConfigError
from ssi.repl import Repl


def test_load_config_resolves_paths_relative_to_file():
    config = load_config(EXAMPLE_DIR / "pinctrl.json")
    assert config.name == "bcm2835-pinctrl"
    assert all(p.exists() for p in config.corpus + config.dtsi + config.hooks)
    assert config.commands["enable-irq"].params == {"gpio": 1}


def test_config_rejects_missing_corpus(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"corpus": []}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{ not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_build_session_validates_entry_functions(tmp_path):
    (tmp_path / "m.c").write_text("int real(void) { return 0; }")
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "corpus": ["m.c"],
        "commands": {"go": {"entry": "not_there"}},
    }))
    with pytest.raises(ConfigError) as exc:
        build_session(load_config(path))
    assert "not_there" in str(exc.value)


def test_build_session_reports_missing_files(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"corpus": ["nope.c"]}))
    with pytest.raises(ConfigError):
        build_session(load_config(path))


def test_cli_script_mode_exit_codes(capsys):
    config = str(EXAMPLE_DIR / "pinctrl.json")
    script = str(EXAMPLE_DIR / "scripts" / "probe.txt")
    assert main([config, "--script", script]) == 0
    out = capsys.readouterr().out
    assert "=> 0, 7e20004c" in out
    assert main([config, "--script", script,
                 "--without-model", "of_address_to_resource"]) == 1
    out = capsys.readouterr().out
    assert "Could not verbose" in out


def test_cli_bad_config_is_exit_2(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert main([str(missing)]) == 2
    assert "ssi:" in capsys.readouterr().err


def test_cli_max_steps_flag(capsys, tmp_path):
    (tmp_path / "m.c").write_text("void spin(void) { while (1) { } }")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "corpus": ["m.c"],
        "commands": {"spin": {"entry": "spin"}},
    }))
    script = tmp_path / "s.txt"
    script.write_text("spin\nq\n")
    code = main([str(config), "--script", str(script), "--max-steps", "200"])
    assert code == 1
    assert "exceeded 200 statement executions" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["0", "-5"])
def test_cli_max_steps_below_one_is_a_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main([str(EXAMPLE_DIR / "pinctrl.json"), "--max-steps", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-steps: must be at least 1" in err


def test_cli_script_with_a_bad_device_choice_runs_nothing(capsys, tmp_path):
    script = tmp_path / "s.txt"
    script.write_text("5\nverbose writel x x\nprobe\nq\n")
    assert main([str(EXAMPLE_DIR / "pinctrl.json"), "--script", str(script)]) == 1
    out = capsys.readouterr().out
    assert out.endswith("2 : brcm,bcm7211-gpio\nChoice: 5\nbad choice: 5\n")
    assert "ssi >" not in out


def test_interactive_bad_device_choice_asks_again():
    session, interp = build_session(load_config(EXAMPLE_DIR / "pinctrl.json"))
    out = io.StringIO()
    code = Repl(session, interp, io.StringIO("5\nzero\n1\nq\n"), out,
                interactive=True).run()
    assert code == 0
    assert out.getvalue().count("Choice: ") == 3
    assert "bad choice: 5\n" in out.getvalue() and "bad choice: zero\n" in out.getvalue()
    assert session.chosen_compatible == "brcm,bcm2711-gpio"
