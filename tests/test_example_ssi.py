import dataclasses
import json
import re

import pytest
from conftest import (
    EXAMPLE_DIR,
    TESTS_DIR,
    assert_matches_golden,
    printed_by,
    run_example_script,
    script_lines,
)

ALL_NOOP_MODELS = ("readl", "raw_spin_lock_irqsave", "raw_spin_unlock_irqrestore",
                   "set_bit", "platform_set_drvdata", "dev_err", "dev_info")


SNAPSHOT = TESTS_DIR / "data" / "example_events.json"
SNAPSHOT_RUNS = [(config, script)
                 for config in ("pinctrl.json", "pinctrl-declarative.json")
                 for script in ("probe.txt", "breakpoint.txt", "missing.txt")]
TRACE_SNAPSHOT = TESTS_DIR / "data" / "example_trace.json"
TRACE_SCRIPTS = (
    ("0", "probe", "b 25", "enable-irq 3", "trace gpio", "xc gpio", "c", "q"),
    ("0", "probe", "b 28", "enable-irq 35", "trace offset", "xc offset", "xc bank",
     "c", "q"),
)


def write_addresses(session):
    return [e.address for e in session.events_of("write")]


def test_probe_matches_golden(pinctrl_probe):
    out, code, _ = pinctrl_probe
    assert code == 0
    assert_matches_golden(out, "probe.golden")


def test_probe_write_events_bank_major(pinctrl_probe):
    _, _, session = pinctrl_probe
    addresses = write_addresses(session)
    # One resource fill plus the twelve register writes of the probe loop.
    assert len(addresses) >= 12
    expected = [f"{0x7E200000 + reg + 4 * bank:x}"
                for bank in (0, 1)
                for reg in (0x4C, 0x58, 0x64, 0x70, 0x7C, 0x88)]
    assert addresses[-12:] == expected


def test_breakpoint_session_matches_golden():
    out, code, _ = run_example_script("pinctrl.json",
                                      script_lines("breakpoint.txt"))
    assert code == 0
    assert_matches_golden(out, "breakpoint.golden")
    assert ", 0) = 3" in out
    assert "=> 8, 7e20004c" in out


def test_missing_model_diagnostic_and_exit_code():
    out, code, _ = run_example_script(
        "pinctrl.json", script_lines("missing.txt"),
        without_models=("of_address_to_resource",))
    assert code == 1
    assert_matches_golden(out, "missing.golden")
    assert re.search(
        r"Line \d+: Could not verbose because missing "
        r"of_address_to_resource \( np , 0 , & iomem \) on line \d+",
        out,
    )


def test_declarative_model_is_operationally_indistinguishable():
    host, code_a, _ = run_example_script("pinctrl.json",
                                         script_lines("probe.txt"))
    declarative, code_b, _ = run_example_script("pinctrl-declarative.json",
                                                script_lines("probe.txt"))
    assert code_a == code_b == 0
    assert host == declarative


def test_transcripts_are_deterministic():
    a, _, _ = run_example_script("pinctrl.json", script_lines("probe.txt"))
    b, _, _ = run_example_script("pinctrl.json", script_lines("probe.txt"))
    assert a == b


def test_interface_model_sufficiency():
    """Deleting every hook except writel/devm_ioremap_resource/
    of_address_to_resource/irqd_to_hwirq leaves the probe transcript
    untouched: the other operations do not affect the written values."""
    full, _, _ = run_example_script("pinctrl.json", script_lines("probe.txt"))
    minimal, code, session = run_example_script(
        "pinctrl.json", script_lines("probe.txt"),
        without_models=ALL_NOOP_MODELS)
    assert code == 0
    assert minimal == full
    assert session.events_of("missing-model")  # they really were unmodeled


def test_enable_irq_gpio_zero_writes_bit_zero():
    # Oracle: 1 << (0 % 32) == 1 at register 0x4c + 4 * (0 / 32).
    out, code, _ = run_example_script(
        "pinctrl.json",
        ["0", "probe", "verbose writel x x", "enable-irq 0", "q"])
    assert code == 0
    assert "=> 1, 7e20004c" in out


def test_enable_irq_gpio_35_targets_bank_one():
    # Oracle: 35 % 32 == 3 so the value is 1 << 3 == 8; 35 / 32 == 1 so the
    # register is 0x4c + 4 == 0x50.
    out, code, _ = run_example_script(
        "pinctrl.json",
        ["0", "probe", "verbose writel x x", "enable-irq 35", "q"])
    assert code == 0
    assert "=> 8, 7e200050" in out


def test_enable_irq_out_of_range_logs_diagnostic():
    _, _, session = run_example_script(
        "pinctrl.json", ["0", "probe", "enable-irq 99", "q"])
    assert any(e.kind == "diagnostic" and e.message
               and "out of range" in e.message for e in session.events)


def test_xc_offset_prints_region_offset_value():
    out, _, _ = run_example_script(
        "pinctrl.json",
        ["0", "probe", "b 26", "enable-irq 3", "xc offset", "c", "q"])
    assert re.search(r"^\(\d+, 0\) = 3$", out, re.M)


def test_device_chooser_lists_three_devices(pinctrl_probe):
    out, _, session = pinctrl_probe
    menu = out[out.index("Choose device:"):].splitlines()[1:4]
    assert menu == ["0 : brcm,bcm2835-gpio", "1 : brcm,bcm2711-gpio",
                    "2 : brcm,bcm7211-gpio"]
    assert session.chosen_compatible == "brcm,bcm2835-gpio"


def test_choosing_another_device_still_probes():
    out, code, session = run_example_script(
        "pinctrl.json", ["1", "verbose writel x x", "probe", "q"])
    assert code == 0
    assert session.chosen_compatible == "brcm,bcm2711-gpio"
    assert "=> 0, 7e20004c" in out


def test_verbose_fires_on_corpus_functions_too():
    out, _, session = run_example_script(
        "pinctrl.json",
        ["0", "verbose bcm2835_gpio_wr - x x", "probe", "q"])
    # Skip flag on pc, then reg (plain decimal) and val; call text verbatim.
    assert "bcm2835_gpio_wr(pc, GPREN0 + i * 4, 0) => 76, 0" in out
    calls = [e for e in session.events_of("call")
             if e.callee == "bcm2835_gpio_wr"]
    assert len(calls) == 12


def test_trace_of_hook_produced_value_names_the_hook():
    out, _, _ = run_example_script(
        "pinctrl.json",
        ["0", "probe", "b 25", "enable-irq 3", "trace gpio", "c", "q"])
    trace_lines = [l for l in out.splitlines()
                   if l.startswith("pinctrl-bcm2835-irq.c:")]
    assert any("irqd_to_hwirq" in l for l in trace_lines)


def test_breakpoint_line_pins_the_offset_computation():
    # The golden script hard-codes line 26; make sure the facsimile still
    # has the offset computation there.
    source = (EXAMPLE_DIR / "pinctrl-bcm2835-irq.c").read_text().splitlines()
    assert "offset = GPIO_REG_SHIFT(gpio)" in source[25]


def event_stream(config, script):
    """``Session.events``, ``parse_events`` and the exit status of one
    scripted run, in the JSON form of the snapshot."""
    without = ("of_address_to_resource",) if script == "missing.txt" else ()
    _, code, session = run_example_script(config, script_lines(script),
                                          without_models=without)
    return json.loads(json.dumps({
        "exit": code,
        "events": [dataclasses.asdict(e) for e in session.events],
        "parse_events": session.parse_events,
    }))


@pytest.mark.parametrize("config,script", SNAPSHOT_RUNS)
def test_event_stream_matches_snapshot(config, script):
    expected = json.loads(SNAPSHOT.read_text())[f"{config} {script}"]
    got = event_stream(config, script)
    assert got["exit"] == expected["exit"]
    assert got["parse_events"] == expected["parse_events"]
    assert got["events"] == expected["events"]


def trace_lines(script):
    """What ``trace`` and ``xc`` print in one scripted run of the example."""
    out, _, _ = run_example_script("pinctrl.json", script)
    return printed_by(out, ("trace", "xc"))


@pytest.mark.parametrize("script", TRACE_SCRIPTS, ids=lambda s: s[3])
def test_trace_and_xc_match_snapshot(script):
    # Provenance lines name parent value ids, so they pin minting order too.
    expected = json.loads(TRACE_SNAPSHOT.read_text())[", ".join(script)]
    assert trace_lines(script) == expected


if __name__ == "__main__":
    # Rewrite both snapshots from the ssi package on the import path:
    #   PYTHONPATH=src python tests/test_example_ssi.py
    streams = {f"{c} {s}": event_stream(c, s) for c, s in SNAPSHOT_RUNS}
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(streams, indent=0, sort_keys=True) + "\n")
    traces = {", ".join(s): trace_lines(s) for s in TRACE_SCRIPTS}
    TRACE_SNAPSHOT.write_text(json.dumps(traces, indent=1, sort_keys=True) + "\n")
