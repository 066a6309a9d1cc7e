"""Set-up probe: start, import convlab, parse one config, build its problem and method.

``run.py`` times this script from process start to exit, several times, and
reports the median as ``setup_s``.  Usage: ``python3 bench/setup_probe.py CONFIG``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from convlab import cli  # noqa: E402

if __name__ == "__main__":
    config = cli.parse_config(json.loads(Path(sys.argv[1]).read_text()))
    problem = cli.build_problem(config.problem_name, config.problem_params)
    cli.build_method(config.method_name, config.method_params, problem)
