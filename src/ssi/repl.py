"""The gdb-style terminal interface.

Line-oriented on purpose: the loop reads commands from any stream and writes
plain lines to any stream, so transcripts are stable and scriptable. In
script mode each command is echoed as ``ssi > <command>`` and the device
choice as ``Choice: <n>``, which makes a transcript self-contained.

Built-in commands: ``b LINE`` (or ``b FILE:LINE``), ``c``, ``s``,
``xc NAME``, ``trace NAME``, ``verbose FN PATTERN``, ``q``. Everything else
is looked up in the SSI's registered command map. Ctrl-C stops a running
command as a breakpoint does, or a loop at its next pass (``_on_interrupt``).
"""

from __future__ import annotations

import signal
import threading
from dataclasses import dataclass, field

from .dtsi import list_compatibles
from .errors import Interrupted, NoSuchLocal, SsiError
from .memory import Location
from .session import INTERRUPT, Session


@dataclass
class Breakpoint:
    file: str | None
    line: int
    enabled: bool = True
    hits: int = 0


@dataclass
class TraceSpec:
    callee: str
    flags: list[str] = field(default_factory=list)  # "x" shows an argument


class _Quit(Exception):
    pass


class Repl:
    def __init__(self, session: Session, interp, instream, outstream,
                 interactive: bool = False):
        self.s = session
        self.interp = interp
        self.inp = instream
        self.outs = outstream
        self.interactive = interactive
        self._running = False
        self._interrupts = 0  # Ctrl-Cs since the command started or last stopped
        self._outer_sigint = None  # the SIGINT handler that ``run`` replaced
        session.out = self._write
        session.stop_handler = self._on_stop
        session.ask = self._ask

    # -------------------------------------------------------------------- io
    def _write(self, text: str):
        self.outs.write(text + "\n")

    def _prompt(self, text: str) -> str | None:
        if self.interactive:
            self.outs.write(text)
            try:
                self.outs.flush()
            except Exception:
                pass
        line = self.inp.readline()
        return line.rstrip("\n") if line else None

    def _read_command(self) -> str | None:
        while True:
            line = self._prompt("ssi > ")
            if line is None:
                return None
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if not self.interactive:
                self._write(f"ssi > {stripped}")
            return stripped

    def _ask(self, prompt: str) -> bool:
        answer = self._prompt(f"{prompt} [y/n] ")
        return answer is not None and answer.strip().lower().startswith("y")

    # ------------------------------------------------------------------ runs
    def run(self) -> int:
        self._banner()
        main = threading.current_thread() is threading.main_thread()
        if main:  # once a run: ``signal.signal`` costs a system call
            self._outer_sigint = signal.signal(signal.SIGINT, self._on_interrupt)
        try:
            self._choose_device()
            while True:
                cmd = self._read_command()
                if cmd is None:
                    break
                self._dispatch(cmd, suspended=False)
        except _Quit:
            pass
        finally:
            if main:  # None: set in C
                signal.signal(signal.SIGINT, self._outer_sigint or signal.SIG_DFL)
        return 1 if self.s.batch_failed else 0

    def _banner(self):
        info = self.s.corpus.module_info()
        if not any(info.values()):
            return
        self._write("Loaded driver:")
        if info["MODULE_DESCRIPTION"]:
            self._write(f"    Description: {info['MODULE_DESCRIPTION'][0]}")
        if info["MODULE_AUTHOR"]:
            self._write(f"    Author(s): {', '.join(info['MODULE_AUTHOR'])}")
        if info["MODULE_LICENSE"]:
            self._write(f"    License: {info['MODULE_LICENSE'][0]}")

    def _choose_device(self):
        compats = list(dict.fromkeys(c for path in self.s.dtsi_files
                                     for c in list_compatibles(path)))
        if not compats:
            return
        if len(compats) == 1:
            self.s.chosen_compatible = compats[0]
            return
        self._write("Choose device:")
        for i, c in enumerate(compats):
            self._write(f"{i} : {c}")
        while True:
            answer = self._prompt("Choice: ")
            if answer is None:
                choice = 0
                break
            answer = answer.strip()
            if not self.interactive:
                self._write(f"Choice: {answer}")
            try:
                choice = int(answer)
            except ValueError:
                choice = -1
            if 0 <= choice < len(compats):
                break
            self._write(f"bad choice: {answer}")
            if not self.interactive:  # a script runs nothing past a bad choice
                self.s.batch_failed = True
                raise _Quit()
        self.s.chosen_compatible = compats[choice]

    # -------------------------------------------------------------- commands
    def _dispatch(self, command: str, suspended: bool) -> str | None:
        parts = command.split()
        head = parts[0]
        try:
            if head == "q":
                raise _Quit()
            if head == "b":
                self._cmd_break(parts[1:])
            elif head == "c" or head == "s":
                action = "continue" if head == "c" else "step"
                if suspended:
                    return action
                self._write(f"nothing to {action}")
            elif head == "xc":
                self._cmd_examine(parts[1:])
            elif head == "trace":
                self._cmd_trace_value(parts[1:])
            elif head == "verbose":
                self._cmd_verbose(parts[1:])
            elif head in self.s.commands:
                if self._running:
                    self._write(f"error: cannot run {head!r} while suspended")
                    self.s.batch_failed = True
                else:
                    self._run_entry(head, parts[1:])
            else:
                self._write(f"unknown command: {head}")
                self.s.batch_failed = True
        except _Quit:
            raise
        except SsiError as e:
            self._write(f"error: {e}")
            self.s.batch_failed = True
        except Exception as e:  # a fault of the interpreter ends the command, not the session
            self._write(f"error: internal {type(e).__name__}: {e}")
            self.s.batch_failed = True
        return None

    def _run_entry(self, name, argv):
        self._running, self._interrupts = True, 0
        try:
            self.interp.run_entry(name, argv)
        finally:
            self._running = False

    def _on_interrupt(self, signum, frame):
        """Ctrl-C while a command runs stops it before its next statement,
        as a breakpoint does, or at a loop's next pass; a second one before
        that stop ends it. Between commands, the handler from before ``run``
        acts (Python's default raises ``KeyboardInterrupt``)."""
        if not self._running:
            outer = self._outer_sigint
            if outer != signal.SIG_IGN:
                (outer if callable(outer) else signal.default_int_handler)(signum, frame)
            return
        self._interrupts += 1
        if self._interrupts > 1:
            raise Interrupted("interrupted")
        self.s.stop_next = INTERRUPT

    def _on_stop(self, position) -> str:
        file_id, line = position
        if self._interrupts:
            self._interrupts = 0
            if not self.interactive:
                raise Interrupted(f"interrupted before {file_id}:{line}")
        self._write(f"ssi :: On line {line}")
        while True:
            cmd = self._read_command()
            if cmd is None:
                return "continue"
            action = self._dispatch(cmd, suspended=True)
            if action is not None:
                return action

    # ----------------------------------------------------------- inspections
    def _cmd_break(self, args):
        if not args:
            self._write("usage: b [FILE:]LINE")
            return
        spec = args[0]
        file_id = None
        if ":" in spec:
            file_id, _, spec = spec.rpartition(":")
        try:
            line = int(spec)
        except ValueError:
            self._write(f"bad line number: {args[0]}")
            return
        self.s.breakpoints[(file_id, line)] = Breakpoint(file_id, line)

    def _cmd_verbose(self, args):
        if not args:
            self._write("usage: verbose FN PATTERN")
            return
        self.s.trace_specs[args[0]] = TraceSpec(args[0], list(args[1:]))

    def _find_local(self, name):
        """The slot of the innermost local ``name``, and its value."""
        for frame in reversed(self.s.frames):
            slot = frame.locals.get(name)
            if slot is not None:
                return slot, self.s.store.load(Location(slot.region, slot.offset), slot.width)
        raise NoSuchLocal(f"no such local: {name}")

    def _cmd_examine(self, args):
        if not args:
            self._write("usage: xc NAME")
            return
        slot, value = self._find_local(args[0])
        text, blocked = self.interp.display_value(value)
        if text is None:
            labels = self.s.values.labels_for(blocked.blockers)
            text = f"<symbolic> blocked by: {', '.join(labels)}"
        self._write(f"({slot.region}, {slot.offset}) = {text}")

    def _cmd_trace_value(self, args):
        if not args:
            self._write("usage: trace NAME")
            return
        _, value = self._find_local(args[0])
        for _vid, (file_id, line), desc, parents in \
                self.s.values.provenance_trace(value):
            joined = ", ".join(f"v{p}" for p in parents)
            self._write(f"{file_id}:{line} {desc}({joined})")


def run_script(session: Session, interp, script_path, outstream) -> int:
    """Batch mode: same semantics as interactive input, commands echoed."""
    with open(script_path, "r", encoding="utf-8") as f:
        return Repl(session, interp, f, outstream, interactive=False).run()
