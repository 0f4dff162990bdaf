"""One fresh process running one ``fastslow`` subcommand, plain or traced.

    python3 child.py {plain|traced|import} MARKS_JSON [SUBCOMMAND CONFIG ARGS...]

The parent puts the checkout's ``src`` on PYTHONPATH.  The child stamps the
monotonic clock (shared by all processes on the machine) when config parsing
ends, which is where the subcommand's own work starts, and writes its marks
to MARKS_JSON on exit.  For ``rate`` it also records the averaged Qbar table,
the one intermediate the oracle check needs and no CSV carries.  ``traced``
additionally installs the span tracer after import and writes every span.
``import`` only imports the CLI, to warm the bytecode and file caches.
"""

import json
import sys
import time


def _install_marks(cli, marks, capture):
    parse = cli.Experiment.__init__
    averaged_model = cli.Experiment.averaged_model

    def init(self, *args, **kwargs):
        parse(self, *args, **kwargs)
        marks.setdefault("entry", time.monotonic())

    def averaged(self):
        avg = averaged_model(self)
        capture["Qbar"] = [float(v) for v in avg.Qbar.reshape(-1)]
        return avg

    cli.Experiment.__init__ = init
    cli.Experiment.averaged_model = averaged


def main(argv):
    t0 = time.monotonic()
    from fastslow import cli

    mode, marks_path, cli_args = argv[0], argv[1], argv[2:]
    marks = {"import_s": time.monotonic() - t0, "exit_code": 1}
    capture = {}
    tracer = None
    try:
        if mode == "traced":
            from tracer import Tracer   # this file's directory is sys.path[0]

            tracer = Tracer()
            tracer.install(cli)
        if mode != "import":
            _install_marks(cli, marks, capture)
            cli.main(args=cli_args, standalone_mode=False)
        marks["exit_code"] = 0
    except SystemExit as err:
        marks["exit_code"] = err.code if isinstance(err.code, int) else 1
    finally:
        marks["end"] = time.monotonic()
        marks["capture"] = capture
        if tracer is not None:
            marks["spans"] = tracer.spans
            marks["clamped"] = sum(f.clamped_count for f in tracer.families.values())
        with open(marks_path, "w") as fh:
            json.dump(marks, fh)
    return marks["exit_code"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
